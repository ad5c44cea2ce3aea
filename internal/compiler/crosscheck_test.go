package compiler

import (
	"math/rand/v2"
	"testing"

	"athena/internal/coeffenc"
	"athena/internal/core"
	"athena/internal/qnn"
)

// TestTraceTracksEngine cross-validates the compiler against the real
// software pipeline: for a small network executed under encryption at
// test parameters, the trace's operation counts must track the engine's
// actual counters (packs and S2C calls exactly; FBS CMults within the
// BSGS rounding slack — the engine interpolates over all of Z_t while
// the trace models the range-sized LUT).
func TestTraceTracksEngine(t *testing.T) {
	p := core.TestParams()
	e, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	mk := func(shape coeffenc.ConvShape, act qnn.Activation, mult float64) *qnn.QConv {
		w := make([][][][]int64, shape.Cout)
		for co := range w {
			w[co] = make([][][]int64, shape.Cin)
			for ci := range w[co] {
				w[co][ci] = make([][]int64, shape.K)
				for i := range w[co][ci] {
					w[co][ci][i] = make([]int64, shape.K)
					for j := range w[co][ci][i] {
						w[co][ci][i][j] = int64(rng.IntN(3)) - 1
					}
				}
			}
		}
		return &qnn.QConv{Shape: shape, Weights: w, Bias: make([]int64, shape.Cout),
			Act: act, Multiplier: mult, ActBits: 4, MaxAcc: 120}
	}
	// Every layer fits one input batch at N=128 so the engine's
	// per-input-batch packing and the trace's per-value-count grouping
	// coincide (at full scale they coincide for all the benchmarks; at
	// test scale fragmented layers pack more often in software).
	net := &qnn.QNetwork{
		Name: "xcheck", InC: 1, InH: 5, InW: 5, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			mk(coeffenc.ConvShape{H: 5, W: 5, Cin: 1, Cout: 1, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16),
			mk(coeffenc.ConvShape{H: 5, W: 5, Cin: 1, Cout: 1, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16),
			mk(coeffenc.FCShape(25, 4), qnn.ActNone, 1.0/8),
		}},
	}
	x := qnn.NewIntTensor(1, 5, 5)
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}
	tr, err := Compile(net, p)
	if err != nil {
		t.Fatal(err)
	}
	var packs, s2c int
	var cmult int64
	for _, s := range tr.Steps {
		switch s.Kind {
		case KPack:
			packs++
		case KS2C:
			s2c++
		case KFBS:
			if s.Cat != CatSoftmax {
				cmult += s.Counts.CMult
			}
		}
	}
	// The trace includes the softmax epilogue (2 extra pack/FBS/S2C
	// rounds) that the engine's plain inference path does not execute.
	packs -= 2
	s2c -= 2

	// The trace models one image, whose pending activation LUT fuses
	// into the next layer's pack; a server-side batch of one must run
	// that same schedule.
	paths := []struct {
		name string
		run  func() error
	}{
		{"Infer", func() error {
			_, err := e.Infer(net, x)
			return err
		}},
		{"EvaluateEncryptedBatch/B=1", func() error {
			in, err := e.EncryptInput(net, x)
			if err != nil {
				return err
			}
			_, err = e.EvaluateEncryptedBatch(net, []*core.EncryptedInput{in})
			return err
		}},
	}
	for _, d := range paths {
		e.Stats = core.OpStats{}
		if err := d.run(); err != nil {
			t.Fatal(err)
		}
		if packs != e.Stats.Packs {
			t.Fatalf("%s: pack count: trace %d vs engine %d", d.name, packs, e.Stats.Packs)
		}
		if s2c != e.Stats.S2CCalls {
			t.Fatalf("%s: S2C count: trace %d vs engine %d", d.name, s2c, e.Stats.S2CCalls)
		}
		// FBS CMults: trace models range-sized LUTs, the engine full-t
		// tables; at t=257 and MaxAcc=120 both are ~45 per call. Allow 30%.
		ratio := float64(cmult) / float64(e.Stats.CMult)
		if ratio < 0.7 || ratio > 1.3 {
			t.Fatalf("%s: FBS CMult count: trace %d vs engine %d (ratio %.2f)", d.name, cmult, e.Stats.CMult, ratio)
		}
	}
}
