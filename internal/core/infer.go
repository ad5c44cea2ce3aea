package core

import (
	"fmt"
	"sort"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/par"
	"athena/internal/qnn"
)

// Infer runs the quantized network on input x (already quantized to the
// network's integer input encoding) entirely under encryption, and
// returns the decrypted output logits. It is the convenience wrapper
// around the three-phase client/server API in session.go.
func (e *Engine) Infer(q *qnn.QNetwork, x *qnn.IntTensor) ([]int64, error) {
	in, err := e.EncryptInput(q, x)
	if err != nil {
		return nil, err
	}
	out, err := e.EvaluateEncrypted(q, in)
	if err != nil {
		return nil, err
	}
	return e.DecryptLogits(out)
}

// inferState wraps either pre-encrypted conv inputs (first layer) or the
// usual labeled LWE values.
type inferState struct {
	vs *valSet
	// firstInputs holds the client-encrypted coefficient encodings of
	// the first linear layer, consumed once.
	firstInputs []*bfv.Ciphertext
	firstPlan   *coeffenc.Plan

	// final carries the terminal layer's accumulators once the last op
	// has run. Keeping it in the per-inference state (rather than on the
	// engine) lets batched images evaluate concurrently.
	final *finalResult
}

func firstConv(q *qnn.QNetwork) (*qnn.QConv, error) {
	if len(q.Blocks) == 0 {
		return nil, fmt.Errorf("core: empty network")
	}
	seq, ok := q.Blocks[0].(qnn.QSeq)
	if !ok || len(seq) == 0 {
		return nil, fmt.Errorf("core: network must start with a QSeq")
	}
	c, ok := seq[0].(*qnn.QConv)
	if !ok {
		return nil, fmt.Errorf("core: network must start with a linear layer")
	}
	return c, nil
}

// applyOp dispatches one quantized operation.
func (wk *evalWorker) applyOp(op qnn.QOp, st *inferState, lastOp bool) (*inferState, error) {
	e := wk.e
	switch o := op.(type) {
	case *qnn.QConv:
		if st.firstInputs != nil {
			// First layer: inputs are already coefficient-encoded, but
			// arrive from the client at the full chain — drop them to the
			// post level so the accumulation runs on the short chain like
			// every later layer.
			inputs := make([]*bfv.Ciphertext, len(st.firstInputs))
			for i, ct := range st.firstInputs {
				var err error
				if inputs[i], err = e.Ctx.ModDown(ct, e.ctxP.Level()); err != nil {
					return nil, err
				}
			}
			accs := wk.convAccumulate(o, st.firstPlan, inputs)
			if lastOp {
				return &inferState{vs: &valSet{}, final: &finalResult{conv: o, plan: st.firstPlan, accs: accs}}, nil
			}
			out := &valSet{C: o.Shape.Cout, H: o.Shape.OutH(), W: o.Shape.OutW(), vals: map[vkey]lwe.Ciphertext{}}
			for ob, acc := range accs {
				m, err := wk.extract(acc, st.firstPlan.ValidCoeffs(ob))
				if err != nil {
					return nil, err
				}
				for k, v := range m {
					out.vals[k] = v
				}
			}
			var err error
			out.pending, err = e.lutFor(o)
			if err != nil {
				return nil, err
			}
			out.fn = o.Remap
			return &inferState{vs: out}, nil
		}
		if lastOp {
			return wk.finalConv(o, st)
		}
		vs, err := wk.convLayer(o, st.vs)
		if err != nil {
			return nil, err
		}
		return &inferState{vs: vs}, nil
	case *qnn.QMaxPool:
		vs, err := wk.maxPool(o, st.vs)
		if err != nil {
			return nil, err
		}
		return &inferState{vs: vs}, nil
	case *qnn.QAvgPool:
		vs, err := wk.avgPool(o, st.vs)
		if err != nil {
			return nil, err
		}
		return &inferState{vs: vs}, nil
	default:
		return nil, fmt.Errorf("core: unsupported op %T", op)
	}
}

// finalResult holds the terminal layer's accumulator ciphertexts for
// decryption.
type finalResult struct {
	conv *qnn.QConv
	plan *coeffenc.Plan
	accs []*bfv.Ciphertext
}

var errNoFinal = fmt.Errorf("core: network did not end in a linear layer")

// finalConv runs the last linear layer and carries its accumulators in
// the returned state.
func (wk *evalWorker) finalConv(q *qnn.QConv, st *inferState) (*inferState, error) {
	plan, err := coeffenc.NewPlan(q.Shape, wk.e.Ctx.N, coeffenc.AthenaOrder)
	if err != nil {
		return nil, err
	}
	inputs, err := wk.convInputs(plan, st.vs)
	if err != nil {
		return nil, err
	}
	accs := wk.convAccumulate(q, plan, inputs)
	return &inferState{vs: &valSet{}, final: &finalResult{conv: q, plan: plan, accs: accs}}, nil
}

// residualBlock runs body and shortcut, joins them with an LWE addition,
// and leaves the post-add ReLU-clamp LUT pending.
func (wk *evalWorker) residualBlock(r *qnn.QResidual, st *inferState) (*inferState, error) {
	e := wk.e
	if st.firstInputs != nil {
		return nil, fmt.Errorf("core: residual block cannot be the first block")
	}
	in, err := wk.materialize(st.vs)
	if err != nil {
		return nil, err
	}
	body := in
	for _, op := range r.Body {
		c, ok := op.(*qnn.QConv)
		if !ok {
			return nil, fmt.Errorf("core: residual body supports linear layers only, got %T", op)
		}
		body, err = wk.convLayer(c, body)
		if err != nil {
			return nil, err
		}
	}
	body, err = wk.materialize(body)
	if err != nil {
		return nil, err
	}
	short := in
	for _, op := range r.Shortcut {
		c, ok := op.(*qnn.QConv)
		if !ok {
			return nil, fmt.Errorf("core: residual shortcut supports linear layers only, got %T", op)
		}
		short, err = wk.convLayer(c, short)
		if err != nil {
			return nil, err
		}
	}
	if len(r.Shortcut) > 0 {
		short, err = wk.materialize(short)
		if err != nil {
			return nil, err
		}
	}
	if body.C != short.C || body.H != short.H || body.W != short.W {
		return nil, fmt.Errorf("core: residual branch shapes differ")
	}
	out := &valSet{C: body.C, H: body.H, W: body.W, vals: make(map[vkey]lwe.Ciphertext, len(body.vals))}
	for k, b := range body.vals {
		s, ok := short.vals[k]
		if !ok {
			return nil, fmt.Errorf("core: residual shortcut missing value %v", k)
		}
		out.vals[k] = e.addLWE(b, s)
		wk.stats.LWEAdds++
	}
	// The join LUT is cached per block, so every image of a batch
	// carries the same pending evaluator into the shared FBS round.
	out.pending, err = e.cachedLUT(r, r.JoinRemap)
	if err != nil {
		return nil, err
	}
	out.fn = r.JoinRemap
	return &inferState{vs: out}, nil
}

// avgPool sums each window with LWE additions in a scaled domain (so
// the per-value extraction noise is crushed by the divide) and leaves
// the divide LUT pending.
func (wk *evalWorker) avgPool(p *qnn.QAvgPool, vs *valSet) (*valSet, error) {
	e := wk.e
	aMax := int64(1)<<(e.netABits-1) - 1
	scale := e.poolScale(aMax * int64(p.K*p.K))
	in, err := wk.materializeScaled(vs, scale)
	if err != nil {
		return nil, err
	}
	oh, ow := in.H/p.K, in.W/p.K
	out := &valSet{C: in.C, H: oh, W: ow, vals: make(map[vkey]lwe.Ciphertext)}
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				acc := e.zeroLWE()
				for i := 0; i < p.K; i++ {
					for j := 0; j < p.K; j++ {
						acc = e.addLWE(acc, in.vals[vkey{c, y*p.K + i, x*p.K + j}])
						wk.stats.LWEAdds++
					}
				}
				out.vals[vkey{c, y, x}] = acc
			}
		}
	}
	div := scale * int64(p.K*p.K)
	out.pending, err = e.divideFor(int(div))
	if err != nil {
		return nil, err
	}
	out.fn = func(x int64) int64 { return roundDiv(x, div) }
	return out, nil
}

// maxPool runs the PEGASUS-style max tree: max(a,b) = b + ReLU(a−b),
// with each tree level's ReLU batched into as few FBS calls as possible.
// The tree operates in a scaled domain so the extraction noise of each
// ReLU round stays far below one activation step; the divide back is
// left pending for the consumer's LUT.
func (wk *evalWorker) maxPool(p *qnn.QMaxPool, vs *valSet) (*valSet, error) {
	e := wk.e
	aMax := int64(1)<<(e.netABits-1) - 1
	scale := e.poolScale(aMax)
	in, err := wk.materializeScaled(vs, scale)
	if err != nil {
		return nil, err
	}
	oh, ow := in.H/p.K, in.W/p.K
	// Gather each window's candidates.
	windows := make(map[vkey][]lwe.Ciphertext)
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var cands []lwe.Ciphertext
				for i := 0; i < p.K; i++ {
					for j := 0; j < p.K; j++ {
						cands = append(cands, in.vals[vkey{c, y*p.K + i, x*p.K + j}])
					}
				}
				windows[vkey{c, y, x}] = cands
			}
		}
	}
	relu, err := e.reluFull()
	if err != nil {
		return nil, err
	}
	for levelHasPairs(windows) {
		// Collect one (a,b) pair per window for this level.
		type pend struct {
			k    vkey
			b    lwe.Ciphertext
			rest []lwe.Ciphertext
		}
		var pends []pend
		var diffs []lwe.Ciphertext
		for _, k := range sortedWindowKeys(windows) {
			cands := windows[k]
			if len(cands) < 2 {
				continue
			}
			a, b := cands[0], cands[1]
			diffs = append(diffs, e.subLWE(a, b))
			pends = append(pends, pend{k: k, b: b, rest: cands[2:]})
		}
		// Batch-ReLU the differences, chunked by slot capacity.
		relus, err := wk.batchLUT(diffs, relu)
		if err != nil {
			return nil, err
		}
		for i, pd := range pends {
			m := e.addLWE(pd.b, relus[i]) // max(a,b)
			wk.stats.LWEAdds++
			windows[pd.k] = append([]lwe.Ciphertext{m}, pd.rest...)
		}
	}
	out := &valSet{C: in.C, H: oh, W: ow, vals: make(map[vkey]lwe.Ciphertext)}
	for k, cands := range windows {
		out.vals[k] = cands[0]
	}
	out.pending, err = e.divideFor(int(scale))
	if err != nil {
		return nil, err
	}
	out.fn = func(x int64) int64 { return roundDiv(x, scale) }
	return out, nil
}

func sortedWindowKeys(w map[vkey][]lwe.Ciphertext) []vkey {
	keys := make([]vkey, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.C != b.C {
			return a.C < b.C
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	return keys
}

func levelHasPairs(w map[vkey][]lwe.Ciphertext) bool {
	for _, c := range w {
		if len(c) >= 2 {
			return true
		}
	}
	return false
}

// reluFull is the plain ReLU LUT (no clamp change) used by the max tree.
func (e *Engine) reluFull() (*fbs.Evaluator, error) {
	return e.reluClampFor(63) // lim = 2^62-1: effectively unclamped ReLU
}

// batchLUT applies a LUT to a flat list of LWE values via
// pack→FBS→S2C→extract, preserving order. The slot-capacity chunks are
// independent bootstrapping rounds and fan out across worker lanes;
// each chunk writes only its own out[start:end] window.
func (wk *evalWorker) batchLUT(vals []lwe.Ciphertext, lut *fbs.Evaluator) ([]lwe.Ciphertext, error) {
	e := wk.e
	n := e.Ctx.N
	out := make([]lwe.Ciphertext, len(vals))
	chunks := (len(vals) + n - 1) / n
	errs := make([]error, chunks)
	wk.forEach(chunks, par.Options{MinGrain: 1}, func(ln *evalWorker, ci int) {
		start := ci * n
		end := start + n
		if end > len(vals) {
			end = len(vals)
		}
		validity := make([]bool, end-start)
		for i := range validity {
			validity[i] = true
		}
		ct, err := ln.packFBS(vals[start:end], lut, e.slotMask(validity))
		if err != nil {
			errs[ci] = err
			return
		}
		ct, err = ln.toCoeffs(ct)
		if err != nil {
			errs[ci] = err
			return
		}
		flat, err := ln.extractFlat(ct, end-start)
		if err != nil {
			errs[ci] = err
			return
		}
		copy(out[start:end], flat)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}
