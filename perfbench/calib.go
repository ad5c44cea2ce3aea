package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"time"

	"athena/internal/bfv"
	"athena/internal/core"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/pack"
	"athena/internal/ring"
)

// calibration holds kernel unit costs timed on the run's own evaluation
// keys, at the level each kernel runs at inside the engine: packing, FBS
// and CMult at the FBS level, plaintext products, S2C and extraction at
// the post level.
type calibration struct {
	nttUS, scaleRoundUS, cmultUS, cmultAllocs, rotateUS, pmultUS float64
	smultSumUS                                                   float64 // one fused call over smultTerms ciphertexts
	switchUS, packMS, s2cMS, fbsMS, evalKeysBuildMS              float64
}

// smultTerms is the fused scalar-sum width timed for bfv.smult_sum_us:
// the baby-step count of one FBS block at t = 257.
const smultTerms = 16

// timeIt returns the median, over five rounds of at least 20 ms, of the
// mean time per call of f.
func timeIt(f func() error) (time.Duration, error) {
	t := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	iters := max(1, int(20*time.Millisecond/max(time.Since(t), time.Microsecond)))
	rounds := make([]float64, 5)
	for r := range rounds {
		t := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		rounds[r] = float64(time.Since(t)) / float64(iters)
	}
	return time.Duration(quantile(rounds, 0.5)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// allocsPer counts heap allocations per call of f.
func allocsPer(n int, f func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), nil
}

// calibrate times every kernel on the evaluation keys of identity 0, the
// client pipeline_deep runs as. Operands are fresh
// encryptions under a calibration key pair; only the evaluation keys
// matter for the cost of the operations timed.
func calibrate(r *run) (*calibration, error) {
	var c calibration
	id, err := newIdentity(r, 0)
	if err != nil {
		return nil, err
	}
	p := r.p
	t0 := time.Now()
	if _, err := core.NewEvaluationEngineFromReader(p, bytes.NewReader(id.blob)); err != nil {
		return nil, err
	}
	c.evalKeysBuildMS = ms(time.Since(t0))
	ek, err := id.eng.EvalKeys()
	if err != nil {
		return nil, err
	}
	bp, err := p.BFVParameters()
	if err != nil {
		return nil, err
	}
	ctx, err := bfv.NewContext(bp)
	if err != nil {
		return nil, err
	}
	fbsL, postL := p.Levels()
	ctxF, err := ctx.AtLevel(fbsL)
	if err != nil {
		return nil, err
	}
	ctxP, err := ctx.AtLevel(postL)
	if err != nil {
		return nil, err
	}
	kg := bfv.NewKeyGenerator(ctx, p.Seed^0xca1b)
	sk := kg.GenSecretKey()
	enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), p.Seed^0xca1c)
	cod := bfv.NewEncoder(ctx)
	rng := rand.New(rand.NewPCG(p.Seed, 0xca1d))
	vals := make([]int64, ctx.N)
	fresh := func(L int) (*bfv.Ciphertext, error) {
		for i := range vals {
			vals[i] = int64(rng.IntN(int(p.T)))
		}
		return ctx.ModDown(enc.Encrypt(cod.EncodeSlots(vals)), L)
	}
	evF := bfv.NewEvaluator(ctxF, ek.KeySet)
	evP := bfv.NewEvaluator(ctxP, ek.KeySet)
	a, err := fresh(fbsL)
	if err != nil {
		return nil, err
	}
	b, err := fresh(fbsL)
	if err != nil {
		return nil, err
	}
	ctP, err := fresh(postL)
	if err != nil {
		return nil, err
	}
	acc, err := fresh(postL)
	if err != nil {
		return nil, err
	}

	randPoly := func(rq *ring.Ring) ring.Poly {
		pl := rq.NewPoly()
		for i, m := range rq.Moduli {
			for j := range pl.Coeffs[i] {
				pl.Coeffs[i][j] = m.Reduce(rng.Uint64())
			}
		}
		return pl
	}
	pl := randPoly(ctxF.RingQ)
	d, err := timeIt(func() error { ctxF.RingQ.NTT(pl); return nil })
	if err != nil {
		return nil, err
	}
	c.nttUS = us(d)

	wide, out := randPoly(ctxF.RingQB), ctxF.RingQ.NewPoly()
	if d, err = timeIt(func() error {
		ctxF.BasisQB.ScaleAndRound(wide, ctxF.TBig, ctxF.QBig, ctxF.BasisQ, out)
		return nil
	}); err != nil {
		return nil, err
	}
	c.scaleRoundUS = us(d)

	mul := func() error { _, err := evF.Mul(a, b); return err }
	if d, err = timeIt(mul); err != nil {
		return nil, err
	}
	c.cmultUS = us(d)
	if c.cmultAllocs, err = allocsPer(20, mul); err != nil {
		return nil, err
	}

	packer, err := packerAt(ctx, ctxF, ek)
	if err != nil {
		return nil, err
	}
	g := packer.GaloisElements()[0]
	if d, err = timeIt(func() error { _, err := evF.Automorphism(a, g); return err }); err != nil {
		return nil, err
	}
	c.rotateUS = us(d)

	codP := bfv.NewEncoder(ctxP)
	pm := codP.LiftToMul(codP.EncodeCoeffs(vals))
	if d, err = timeIt(func() error { evP.MulPlainAndAdd(ctP, pm, acc); return nil }); err != nil {
		return nil, err
	}
	c.pmultUS = us(d)

	terms := make([]*bfv.Ciphertext, smultTerms)
	ks := make([]uint64, smultTerms)
	for i := range terms {
		terms[i] = a
		ks[i] = uint64(rng.IntN(int(p.T)))
	}
	sum := ctxF.NewCiphertext()
	if d, err = timeIt(func() error { evF.MulScalarSumInto(terms, ks, sum); return nil }); err != nil {
		return nil, err
	}
	c.smultSumUS = us(d)

	// Extraction: one coefficient of a post-level ciphertext switched to
	// qMid and sample-extracted, then keyswitched to dimension n.
	la, lb, err := ctx.SwitchModulus(ctP, p.QMid())
	if err != nil {
		return nil, err
	}
	lweCT := lwe.SampleExtract(lwe.RLWE{A: la, B: lb, Q: p.QMid()}, []int{0})[0]
	sw := ek.KSK.NewSwitcher()
	if d, err = timeIt(func() error { sw.Switch(lweCT); return nil }); err != nil {
		return nil, err
	}
	c.switchUS = us(d)

	lsk := lwe.NewSecretKey(ek.PackDim, p.Seed^0xca1e)
	smp := lwe.NewStream(p.Seed ^ 0xca1f)
	cts := make([]lwe.Ciphertext, ctx.N)
	for i := range cts {
		cts[i] = lwe.Encrypt(lsk, uint64(rng.IntN(int(p.T))), p.T, p.Sigma, smp)
	}
	var packed *bfv.Ciphertext
	if d, err = timeIt(func() error { packed, err = packer.Pack(evF, cts); return err }); err != nil {
		return nil, err
	}
	c.packMS = ms(d)

	relu, err := fbs.NewEvaluator(ctxF, fbs.ReLULUT(p.T))
	if err != nil {
		return nil, err
	}
	if d, err = timeIt(func() error { _, err := relu.Evaluate(evF, packed); return err }); err != nil {
		return nil, err
	}
	c.fbsMS = ms(d)

	s2c, err := pack.CompileTransform(ctxP, pack.S2CMatrix(ctxP))
	if err != nil {
		return nil, err
	}
	if d, err = timeIt(func() error { _, err := s2c.Apply(evP, ctP); return err }); err != nil {
		return nil, err
	}
	c.s2cMS = ms(d)
	return &c, nil
}

// packerAt rebuilds the working packer at the FBS level from the
// full-chain packing keys, as the evaluation engine does.
func packerAt(ctx, ctxF *bfv.Context, ek *core.EvalKeys) (*pack.Packer, error) {
	babies := make([]*bfv.Ciphertext, len(ek.PackKeys))
	for i, k := range ek.PackKeys {
		var err error
		if babies[i], err = ctx.ModDown(k, ctxF.Level()); err != nil {
			return nil, err
		}
	}
	return pack.NewPackerFromKeys(ctxF, ek.PackDim, babies)
}

// stepKind is one row of the explained-time table: a step kind of the
// paper's breakdown, its per-image count and its calibrated unit cost.
type stepKind struct {
	kind   string
	count  float64
	unitMS float64
}

func explainedRows(c *calibration, m metricSet) []stepKind {
	return []stepKind{
		{"linear (pmult)", m["core.ops.pmult"].Value, c.pmultUS / 1e3},
		{"pack", m["core.ops.packs"].Value, c.packMS},
		{"fbs", m["core.ops.fbs_calls"].Value, c.fbsMS},
		{"s2c", m["core.ops.s2c_calls"].Value, c.s2cMS},
		{"se (extract+keyswitch)", m["core.ops.extractions"].Value, c.switchUS / 1e3},
	}
}

// explainedShare is Σ(count × unit cost) over the step kinds divided by
// the measured per-image evaluation time.
func explainedShare(c *calibration, m metricSet) float64 {
	var sum float64
	for _, k := range explainedRows(c, m) {
		sum += k.count * k.unitMS
	}
	if ev := m["core.evaluate_ms"].Value; ev > 0 {
		return sum / ev
	}
	return 0
}

// printExplained writes the explained-time table: per step kind, the
// per-image count times the calibrated unit cost, beside the measured
// evaluation time, with the unexplained remainder.
func printExplained(w io.Writer, c *calibration, m metricSet) {
	ev := m["core.evaluate_ms"].Value
	fmt.Fprintf(w, "explained time per image (kernel unit cost × op count; kernels timed single-call, the engine may fan out over GOMAXPROCS)\n")
	fmt.Fprintf(w, "  %-24s %10s %12s %12s %8s\n", "step kind", "count", "unit_ms", "explained_ms", "share")
	var sum float64
	for _, k := range explainedRows(c, m) {
		e := k.count * k.unitMS
		sum += e
		fmt.Fprintf(w, "  %-24s %10.2f %12.4f %12.3f %7.1f%%\n", k.kind, k.count, k.unitMS, e, 100*e/max(ev, 1e-9))
	}
	fmt.Fprintf(w, "  %-24s %10s %12s %12.3f %7.1f%%\n", "sum", "", "", sum, 100*sum/max(ev, 1e-9))
	fmt.Fprintf(w, "  %-24s %10s %12s %12.3f\n", "core.evaluate_ms", "", "", ev)
	fmt.Fprintf(w, "  %-24s %10s %12s %12.3f %7.1f%%\n", "unexplained", "", "", ev-sum, 100*(ev-sum)/max(ev, 1e-9))
	fmt.Fprintf(w, "  fbs by primitive: %.1f cmult × %.1f µs + %.1f smult × %.2f µs = %.3f ms per image\n",
		m["core.ops.cmult"].Value, c.cmultUS, m["core.ops.smult"].Value, c.smultSumUS/smultTerms,
		(m["core.ops.cmult"].Value*c.cmultUS+m["core.ops.smult"].Value*c.smultSumUS/smultTerms)/1e3)
}

// perLayer fills the per-layer metrics that come from the two measured
// halves and the calibration.
func perLayer(r *run, plain, traced *phase, c *calibration, m metricSet) {
	all := mergePhases(plain, traced)
	enc := append(append([]float64(nil), plain.enc...), traced.enc...)
	dec := append(append([]float64(nil), plain.dec...), traced.dec...)
	rtt := append(append([]float64(nil), plain.rtt...), traced.rtt...)
	lag := append(append([]float64(nil), plain.lag...), traced.lag...)
	m.set("core.encrypt_ms", quantile(enc, 0.5), "ms")
	m.set("core.decrypt_ms", quantile(dec, 0.5), "ms")
	m.set("core.keygen_ms", quantile(r.keygen, 0.5), "ms")
	m.set("core.evalkeys_bytes", float64(r.blobN), "bytes")
	m.set("core.evalkeys_build_ms", c.evalKeysBuildMS, "ms")
	if len(rtt) > 0 {
		m.set("serve.rtt_ms_p50", quantile(rtt, 0.5), "ms")
		if be, ok := m["serve.batch_eval_ms"]; ok {
			m.set("serve.wait_ms", mean(rtt)-be.Value, "ms")
		}
	}
	m.set("ring.ntt_us", c.nttUS, "us")
	m.set("rns.scale_round_us", c.scaleRoundUS, "us")
	m.set("bfv.cmult_us", c.cmultUS, "us")
	m.set("bfv.cmult_allocs", c.cmultAllocs, "count")
	m.set("bfv.rotate_us", c.rotateUS, "us")
	m.set("bfv.pmult_us", c.pmultUS, "us")
	m.set("bfv.smult_sum_us", c.smultSumUS, "us")
	m.set("lwe.switch_us", c.switchUS, "us")
	m.set("pack.pack_ms", c.packMS, "ms")
	m.set("pack.s2c_ms", c.s2cMS, "ms")
	m.set("fbs.eval_ms", c.fbsMS, "ms")
	m.set("core.explained_share", explainedShare(c, m), "ratio")

	allocs, gc := runtimeDelta(plain.rt0, traced.rt1, all.completed)
	m.set("runtime.allocs_per_req", allocs, "count")
	m.set("runtime.gc_cpu_share", gc, "ratio")
	m.set("loadgen.lag_ms_p95", quantile(lag, 0.95), "ms")
	m.set("loadgen.offered_rps", (plain.offered*plain.elapsed.Seconds()+traced.offered*traced.elapsed.Seconds())/all.elapsed.Seconds(), "1/s")

	p50a, p50b := plain.windowed(0.5), traced.windowed(0.5)
	m.set("trace.overhead_ms", p50b-p50a, "ms")
	if p50a > 0 {
		m.set("trace.overhead_share", p50b/p50a-1, "ratio")
	}
}
