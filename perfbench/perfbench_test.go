package main

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"athena/internal/coeffenc"
	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
)

func TestWindowedQuantile(t *testing.T) {
	ph := newPhase(32)
	t0 := ph.start(30 * time.Second)
	// Six windows; one outlier in window 2 moves only that window.
	for w := 0; w < 6; w++ {
		for i := 0; i < 10; i++ {
			v := float64(100 + i)
			if w == 2 && i == 9 {
				v = 1e6
			}
			ph.addLat(t0.Add(time.Duration(w)*windowLen+time.Duration(i)*time.Millisecond), v)
		}
	}
	if got := ph.windowed(0.5); got != 104.5 {
		t.Fatalf("windowed p50 %v, want 104.5", got)
	}
	if got := ph.windowed(1); got != 109 {
		t.Fatalf("windowed max %v, want 109", got)
	}
}

func TestSameSeedSameInputsAndIdentities(t *testing.T) {
	q := benchNet()
	r1, r2 := inputStream(3, 0), inputStream(3, 0)
	for i := 0; i < 10; i++ {
		if !slices.Equal(randomInput(q, r1).Data, randomInput(q, r2).Data) {
			t.Fatal("same seed gave different inputs")
		}
	}
	a := identitySequence(3, 1, poolSize, zipfS, 200)
	if !slices.Equal(a, identitySequence(3, 1, poolSize, zipfS, 200)) {
		t.Fatal("same seed gave different identity sequences")
	}
	if slices.Equal(a, identitySequence(3, 0, poolSize, zipfS, 200)) {
		t.Fatal("two callers share one identity sequence")
	}
	counts := make([]int, poolSize)
	for _, i := range a {
		counts[i]++
	}
	if counts[0] <= counts[poolSize-1] {
		t.Fatalf("identity popularity is not skewed: %v", counts)
	}
}

func TestNoiseBoundsFollowModel(t *testing.T) {
	// DemoNet's dense rows have Σ|W| = Σ W² = 23, 15, 23, 18 over a ReLU
	// layer whose activations carry variance 1 + 32/18; the bound is
	// 1 + floor(6·σ) with σ² = Σ W² · (1 + 32/18) / 8².
	b, err := logitBounds(serve.DemoNet(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{6, 5, 6, 6}; !slices.Equal(b, want) {
		t.Fatalf("DemoNet bounds %v, want %v", b, want)
	}
	// A single dense layer has no hidden activation: only the final
	// rounding remains.
	b, err = logitBounds(denseNet(), 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range b {
		if v != 1 {
			t.Fatalf("single-layer bounds %v, want all 1", b)
		}
	}
}

// denseNet is a one-layer 8→4 network: its logits are exact up to the
// final rounding.
func denseNet() *qnn.QNetwork {
	w := make([][][][]int64, 4)
	for o := range w {
		w[o] = make([][][]int64, 8)
		for i := range w[o] {
			w[o][i] = [][]int64{{int64((o+i)%3) - 1}}
		}
	}
	return &qnn.QNetwork{Name: "dense", InC: 8, InH: 1, InW: 1, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{&qnn.QConv{Shape: coeffenc.ConvShape{H: 1, W: 1, Cin: 8, Cout: 4, K: 1, Stride: 1},
			Weights: w, Bias: make([]int64, 4), Act: qnn.ActNone, Multiplier: 1, ActBits: 4, MaxAcc: 120, IsDense: true}}}}
}

func TestCheckRejectsTamperAndPermutation(t *testing.T) {
	// One dense layer: every bound is 1, so one request shows both.
	q := denseNet()
	x := qnn.NewIntTensor(8, 1, 1)
	for i := range x.Data {
		x.Data[i] = int64(i % 4)
	}
	want := q.ForwardInt(x).Data
	if slices.Max(want)-slices.Min(want) < 2 {
		t.Fatalf("logits %v do not separate", want)
	}
	chk := newChecker(32)
	if ok, err := chk.check(q, x, want); !ok || err != nil {
		t.Fatalf("exact logits rejected (%v)", err)
	}
	edge := slices.Clone(want)
	edge[0]++
	if ok, _ := chk.check(q, x, edge); !ok {
		t.Fatal("logit at the bound rejected")
	}
	tampered := slices.Clone(want)
	tampered[0] += 2
	if ok, _ := chk.check(q, x, tampered); ok {
		t.Fatal("tampered logit accepted")
	}
	perm := append(slices.Clone(want[1:]), want[0])
	if ok, _ := chk.check(q, x, perm); ok {
		t.Fatalf("permuted logits %v accepted (want %v)", perm, want)
	}
	if chk.passed() {
		t.Fatal("run with rejected logits passed")
	}

	// On DemoNet a logit off by 2 stays inside its bound of 5–6, but a
	// run in which every logit is off by 2 carries far more error energy
	// than the noise model: the run-level check rejects it.
	dq := serve.DemoNet()
	rng := inputStream(1, 0)
	good, bad := newChecker(32), newChecker(32)
	for i := 0; i < 200; i++ {
		x := randomInput(dq, rng)
		w := dq.ForwardInt(x).Data
		noisy := slices.Clone(w)
		noisy[i%len(noisy)] += int64(i%3) - 1 // ±1 remap-sized noise
		if ok, _ := good.check(dq, x, noisy); !ok {
			t.Fatalf("in-model deviation rejected: got %v want %v", noisy, w)
		}
		shifted := slices.Clone(w)
		for j := range shifted {
			shifted[j] += 2
		}
		if ok, _ := bad.check(dq, x, shifted); !ok {
			t.Fatalf("a deviation of 2 fell outside DemoNet's per-logit bound")
		}
	}
	if !good.passed() {
		t.Fatalf("in-model run failed the check (noise ratio %.3f)", good.noiseRatio())
	}
	if bad.passed() {
		t.Fatalf("shifted run passed the check (noise ratio %.3f)", bad.noiseRatio())
	}
	tam := newChecker(32)
	x0 := randomInput(dq, rng)
	w0 := dq.ForwardInt(x0).Data
	b0, _ := logitBounds(dq, 32)
	w0[1] += b0[1] + 1
	if ok, _ := tam.check(dq, x0, w0); ok || tam.passed() {
		t.Fatal("tampered DemoNet logit accepted")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // outlives its parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "request", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	// request 1 is covered by [10,50] ∪ [90,100] = 50 of its 100.
	want := map[int64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	rows := spanTree(spans)
	paths := make([]string, len(rows))
	for i, r := range rows {
		paths[i] = r.Path
	}
	if want := []string{"request", "request/a", "request/b", "request/b/d", "request/c"}; !slices.Equal(paths, want) {
		t.Fatalf("tree paths %v, want %v", paths, want)
	}
	if rows[0].Count != 2 || rows[0].SelfMS != 60e-6 {
		t.Fatalf("root row %+v, want 2 spans with 60 ns self", rows[0])
	}
}

func TestConnGateNeverExceedsBudget(t *testing.T) {
	g := newConnGate(maxConns)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				g.acquire()
				time.Sleep(100 * time.Microsecond)
				g.release()
			}
		}()
	}
	wg.Wait()
	if g.peak > maxConns || g.open != 0 {
		t.Fatalf("peak %d open %d, budget %d", g.peak, g.open, maxConns)
	}
}

// TestLoadGeneratorBudget drives the workload that opens the most
// connections and checks the process stayed inside its budget.
func TestLoadGeneratorBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a two-node cluster")
	}
	runtime.GOMAXPROCS(procsBudget())
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		t.Fatalf("GOMAXPROCS %d exceeds %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	p := core.TestParams()
	r := &run{o: options{workload: "session_churn", seed: 1}, p: p, tmp: t.TempDir(), gate: newConnGate(maxConns)}
	w := &churn{r: r}
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	ph, err := w.measure(2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted == 0 || ph.ok() != ph.attempted {
		t.Fatalf("attempted %d, correct %d", ph.attempted, ph.ok())
	}
	if r.gate.peak > maxConns || r.gate.peak == 0 {
		t.Fatalf("peak open connections %d, budget %d", r.gate.peak, maxConns)
	}
}

// logitBounds returns, for each logit of q, the largest deviation from
// ForwardInt the noise model admits at LWE dimension lweDim.
func logitBounds(q *qnn.QNetwork, lweDim int) ([]int64, error) {
	b, _, err := noiseModel(q, lweDim)
	return b, err
}
