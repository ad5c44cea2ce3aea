package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// phase is what one measured phase of a workload observed.
type phase struct {
	attempted int
	completed int // replies received (correct or not); the rest failed
	checkErrs int // replies whose logits fell outside the noise bound
	elapsed   time.Duration
	cpu       time.Duration
	rt0, rt1  runtimeSample

	t0    time.Time     // start of the measured window
	d     time.Duration // its planned length
	lat   []float64     // request latency, ms
	win   []int         // latency window of each lat sample
	ready []float64     // session ready (dial → attached), ms
	rtt   []float64     // InferEncrypted round trip, ms
	enc   []float64     // client encryption, ms
	dec   []float64     // client decryption, ms
	eval  []float64     // in-process EvaluateEncrypted, ms
	lag   []float64     // how late the generator issued each request, ms

	offered float64 // requests per second the generator offered
	chk     *checker
}

func newPhase(lweDim int) *phase { return &phase{chk: newChecker(lweDim)} }

// ok is the number of requests completed with every logit in bound.
func (ph *phase) ok() int { return ph.completed - ph.checkErrs }

// start and stop bracket the measured window of planned length d.
func (ph *phase) start(d time.Duration) time.Time {
	ph.rt0 = readRuntime()
	ph.t0, ph.d = time.Now(), d
	return ph.t0
}

func (ph *phase) stop(t0 time.Time) {
	ph.elapsed = time.Since(t0)
	ph.rt1 = readRuntime()
	ph.cpu = ph.rt1.proc - ph.rt0.proc
}

// windowLen is the latency window: the latency percentiles are medians
// over a run's windows of each window's percentile, so one unlucky burst
// moves one window's value, not the run's.
const windowLen = 5 * time.Second

// windows is the number of latency windows in a phase of length d.
func windows(d time.Duration) int {
	return max(1, int((d+windowLen/2)/windowLen))
}

// addLat records the latency of a request that was due (or started) at
// due.
func (ph *phase) addLat(due time.Time, v float64) {
	w := windows(ph.d)
	i := int(float64(w) * float64(due.Sub(ph.t0)) / float64(ph.d))
	ph.lat = append(ph.lat, v)
	ph.win = append(ph.win, min(max(i, 0), w-1))
}

// windowed is the median over latency windows of each window's
// q-quantile.
func (ph *phase) windowed(q float64) float64 {
	by := map[int][]float64{}
	for i, v := range ph.lat {
		by[ph.win[i]] = append(by[ph.win[i]], v)
	}
	var per []float64
	for _, xs := range by {
		per = append(per, quantile(xs, q))
	}
	return quantile(per, 0.5)
}

// mergePhases combines the traced run's two halves for the report.
func mergePhases(a, b *phase) *phase {
	m := newPhase(a.chk.lweDim)
	for _, ph := range []*phase{a, b} {
		m.attempted += ph.attempted
		m.completed += ph.completed
		m.checkErrs += ph.checkErrs
		m.elapsed += ph.elapsed
		m.cpu += ph.cpu
		off := windows(m.d)
		for i, v := range ph.lat {
			m.lat = append(m.lat, v)
			m.win = append(m.win, off+ph.win[i])
		}
		m.d += ph.d
		m.ready = append(m.ready, ph.ready...)
		m.chk.merge(ph.chk)
	}
	return m
}

// recorder serializes the sample appends of concurrent requests.
type recorder struct {
	mu sync.Mutex
	ph *phase
}

func (rc *recorder) do(f func(ph *phase)) {
	rc.mu.Lock()
	f(rc.ph)
	rc.mu.Unlock()
}

// connGate enforces the connection budget: acquire blocks while max
// client connections are open. peak records the most ever open at once.
type connGate struct {
	slots chan struct{} // one token per open connection

	mu   sync.Mutex
	open int
	peak int
}

func newConnGate(max int) *connGate { return &connGate{slots: make(chan struct{}, max)} }

func (g *connGate) acquire() {
	g.slots <- struct{}{}
	g.mu.Lock()
	g.open++
	g.peak = max(g.peak, g.open)
	g.mu.Unlock()
}

func (g *connGate) release() {
	g.mu.Lock()
	g.open--
	g.mu.Unlock()
	<-g.slots
}

// identitySequence draws the session_churn identity indices one caller
// visits: Zipf(s) over a pool of n identities, so a few are hot and the
// tail is cold.
func identitySequence(seed uint64, caller int, n int, s float64, count int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x2bf1+uint64(caller)))
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
