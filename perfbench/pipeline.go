package main

import (
	"bytes"
	"math/rand/v2"
	"time"

	"athena/internal/core"
	"athena/internal/qnn"
)

// pipeline is pipeline_deep: one caller in a closed loop, no network.
// Each request is EncryptInput → EvaluateEncrypted → DecryptLogits at
// batch 1 on the 3-layer bench net, so core and the kernels do all the
// work and serve, store and cluster none. The evaluation engine is built
// from the client's serialized evaluation keys, as a server would.
const readyBuilds = 2

type pipeline struct {
	r   *run
	q   *qnn.QNetwork
	cli *identity
	srv *core.Engine
	rng *rand.Rand

	ops    core.OpStats // evaluation-engine ops over the measured phases
	images int
	eval   []float64 // EvaluateEncrypted, ms
}

func (w *pipeline) setup() error {
	r := w.r
	w.q = benchNet()
	cli, err := newIdentity(r, 0)
	if err != nil {
		return err
	}
	w.cli = cli
	// The in-process analogue of a session becoming ready is building the
	// evaluation engine from the key bundle; it is timed readyBuilds
	// times per setup for enough session-ready samples.
	for i := 0; i < readyBuilds; i++ {
		t0 := time.Now()
		w.srv, err = core.NewEvaluationEngineFromReader(r.p, bytes.NewReader(cli.blob))
		if err != nil {
			return err
		}
		r.ready = append(r.ready, ms(time.Since(t0)))
	}
	// One request compiles the LUT evaluators and plan caches.
	in, err := cli.encrypt(w.q, randomInput(w.q, inputStream(r.o.seed, 1<<20)))
	if err != nil {
		return err
	}
	out, err := w.srv.EvaluateEncrypted(w.q, in)
	if err != nil {
		return err
	}
	if _, err := cli.decrypt(out); err != nil {
		return err
	}
	w.rng = inputStream(r.o.seed, 0)
	return nil
}

func (w *pipeline) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase(w.r.p.LWEDim)
	before := w.srv.Stats
	t0 := ph.start(d)
	deadline := t0.Add(d)
	prev := t0
	for req := int64(1); time.Now().Before(deadline); req++ {
		x := randomInput(w.q, w.rng)
		start := time.Now()
		ph.lag = append(ph.lag, ms(start.Sub(prev)))
		ph.attempted++
		root := tr.begin("request", 0, req)

		s := tr.begin("core.encrypt", root, req)
		in, err := w.cli.encrypt(w.q, x)
		tEnc := time.Now()
		tr.end(s)
		var out *core.EncryptedLogits
		if err == nil {
			s = tr.begin("core.evaluate", root, req)
			out, err = w.srv.EvaluateEncrypted(w.q, in)
			tr.end(s)
		}
		tEval := time.Now()
		var logits []int64
		if err == nil {
			s = tr.begin("core.decrypt", root, req)
			logits, err = w.cli.decrypt(out)
			tr.end(s)
		}
		done := time.Now()
		tr.end(root)
		if err != nil {
			prev = time.Now()
			continue
		}
		ph.completed++
		ph.addLat(start, ms(done.Sub(start)))
		ph.enc = append(ph.enc, ms(tEnc.Sub(start)))
		ph.eval = append(ph.eval, ms(tEval.Sub(tEnc)))
		ph.dec = append(ph.dec, ms(done.Sub(tEval)))

		s = tr.begin("check", 0, req)
		if ok, err := ph.chk.check(w.q, x, logits); !ok || err != nil {
			ph.checkErrs++
		}
		tr.end(s)
		prev = time.Now()
	}
	ph.stop(t0)
	ph.offered = float64(ph.attempted) / ph.elapsed.Seconds()
	after := w.srv.Stats
	w.ops = addOps(w.ops, subOps(after, before))
	w.images += ph.completed
	w.eval = append(w.eval, ph.eval...)
	return ph, nil
}

func (w *pipeline) layers(m metricSet) error {
	m.set("core.evaluate_ms", quantile(w.eval, 0.5), "ms")
	setOps(m, w.ops, w.images)
	return nil
}

func (w *pipeline) close() {}

func subOps(a, b core.OpStats) core.OpStats {
	return core.OpStats{
		PMult: a.PMult - b.PMult, HAdd: a.HAdd - b.HAdd, CMult: a.CMult - b.CMult, SMult: a.SMult - b.SMult,
		Packs: a.Packs - b.Packs, FBSCalls: a.FBSCalls - b.FBSCalls, S2CCalls: a.S2CCalls - b.S2CCalls,
		Extractions: a.Extractions - b.Extractions, KeySwitches: a.KeySwitches - b.KeySwitches, LWEAdds: a.LWEAdds - b.LWEAdds,
	}
}

func addOps(a, b core.OpStats) core.OpStats {
	return subOps(a, subOps(core.OpStats{}, b))
}

// setOps records per-image operation counts.
func setOps(m metricSet, o core.OpStats, images int) {
	n := float64(max(1, images))
	m.set("core.ops.cmult", float64(o.CMult)/n, "count")
	m.set("core.ops.smult", float64(o.SMult)/n, "count")
	m.set("core.ops.pmult", float64(o.PMult)/n, "count")
	m.set("core.ops.packs", float64(o.Packs)/n, "count")
	m.set("core.ops.fbs_calls", float64(o.FBSCalls)/n, "count")
	m.set("core.ops.s2c_calls", float64(o.S2CCalls)/n, "count")
	m.set("core.ops.extractions", float64(o.Extractions)/n, "count")
	m.set("core.ops.keyswitches", float64(o.KeySwitches)/n, "count")
}
