package core

import (
	"fmt"
	"sort"
	"sync"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/pack"
	"athena/internal/par"
	"athena/internal/qnn"
	"athena/internal/ring"
)

// Engine holds all key material and compiled transforms for running
// quantized networks under FHE. In a deployment the secret key and
// decryptor live with the client and everything else with the server;
// the engine keeps both sides for end-to-end evaluation.
type Engine struct {
	P   Params
	Ctx *bfv.Context

	// Level schedule (Params.Levels): ctxF is the FBS-level context the
	// packing and LUT ladders run under; ctxP is the post-level context
	// for everything after the LUT (masking, S2C, conv accumulation,
	// extraction). Either may alias Ctx when the schedule keeps the full
	// chain.
	ctxF *bfv.Context
	ctxP *bfv.Context

	sk   *bfv.SecretKey
	enc  *bfv.Encryptor
	dec  *bfv.Decryptor
	ev   *bfv.Evaluator // FBS-level evaluator (ctxF)
	evP  *bfv.Evaluator // post-level evaluator (ctxP)
	cod  *bfv.Encoder   // full-level encoder (client-side encode/decode)
	codP *bfv.Encoder   // post-level encoder (lifts for post-level products)

	lweSK  *lwe.SecretKey    // dimension n secret (client side)
	ksk    *lwe.KeySwitchKey // ring-degree -> n at qMid
	packer *pack.Packer      // working packer at ctxF (ModDown'd babies)
	s2c    *pack.Transform   // compiled at ctxP

	// Full-level packing keys as generated/received: the wire format
	// (EvalKeys) always carries full-chain babies, the working packer is
	// rebuilt at ctxF from them.
	packN      int
	packBabies []*bfv.Ciphertext

	// luts caches compiled FBS evaluators by what they compute: a
	// conv's fused remap (*qnn.QConv), a residual join (*qnn.QResidual),
	// a ReLU clamp (reluKey) or an avg-pool divide (divKey). A shared
	// pending LUT is recognized by pointer identity across a batch.
	luts map[any]*fbs.Evaluator

	// lutMu guards luts: pooled lanes compile and look up evaluators
	// concurrently during batched inference.
	lutMu sync.Mutex

	// w0 is the top-level evaluation worker (wrapping e.ev); lanes holds
	// the ShallowCopy'd workers the operator-level fan-outs run on.
	w0    *evalWorker
	lanes *par.Pool[*evalWorker]

	tMod ring.Modulus // cached Barrett constants for the LWE arithmetic

	// netABits is the activation bit width of the network currently
	// being inferred (set by Infer; used to size pooling domains).
	netABits int

	// Stats accumulates operation counts over Infer calls.
	Stats OpStats
}

// OpStats counts homomorphic operations issued by the engine. The JSON
// form is the "ops" block of the serving /metrics document.
type OpStats struct {
	PMult       int `json:"pmult"`
	HAdd        int `json:"hadd"`
	CMult       int `json:"cmult"`
	SMult       int `json:"smult"`
	Packs       int `json:"packs"`
	FBSCalls    int `json:"fbs_calls"`
	S2CCalls    int `json:"s2c_calls"`
	Extractions int `json:"extractions"`
	KeySwitches int `json:"key_switches"`
	LWEAdds     int `json:"lwe_adds"`
}

// Add returns the field-wise sum s + o.
func (s OpStats) Add(o OpStats) OpStats { return s.combine(o, 1) }

// Sub returns the field-wise difference s − o (the counts consumed
// between two cumulative snapshots o and s).
func (s OpStats) Sub(o OpStats) OpStats { return s.combine(o, -1) }

func (s OpStats) combine(o OpStats, sign int) OpStats {
	return OpStats{
		PMult:       s.PMult + sign*o.PMult,
		HAdd:        s.HAdd + sign*o.HAdd,
		CMult:       s.CMult + sign*o.CMult,
		SMult:       s.SMult + sign*o.SMult,
		Packs:       s.Packs + sign*o.Packs,
		FBSCalls:    s.FBSCalls + sign*o.FBSCalls,
		S2CCalls:    s.S2CCalls + sign*o.S2CCalls,
		Extractions: s.Extractions + sign*o.Extractions,
		KeySwitches: s.KeySwitches + sign*o.KeySwitches,
		LWEAdds:     s.LWEAdds + sign*o.LWEAdds,
	}
}

// NewEngine generates all key material for params.
func NewEngine(p Params) (*Engine, error) {
	e, err := newEngineShell(p)
	if err != nil {
		return nil, err
	}
	ctx := e.Ctx
	kg := bfv.NewKeyGenerator(ctx, p.Seed)
	e.sk = kg.GenSecretKey()
	pk := kg.GenPublicKey(e.sk)
	e.enc = bfv.NewEncryptor(ctx, pk, p.Seed^0xeac7)
	e.dec = bfv.NewDecryptor(ctx, e.sk)

	// LWE material: the ring secret's coefficient vector is the
	// extraction-side key; a fresh dimension-n key receives it.
	e.lweSK = lwe.NewSecretKey(p.LWEDim, p.Seed^0x17e)
	ringSK := &lwe.SecretKey{S: e.sk.Signed}
	e.ksk = lwe.NewKeySwitchKey(ringSK, e.lweSK, p.QMid(), p.KSBase, p.Sigma, p.Seed^0x55)

	// Packing keys are generated (and exported) at the full chain; the
	// working packer runs at the FBS level, so rebuild it from ModDown'd
	// babies.
	pkFull, err := pack.NewPacker(ctx, e.enc, e.lweSK)
	if err != nil {
		return nil, err
	}
	e.packN, e.packBabies = pkFull.Keys()
	if err := e.buildPacker(); err != nil {
		return nil, err
	}
	e.s2c, err = pack.CompileTransform(e.ctxP, pack.S2CMatrix(e.ctxP))
	if err != nil {
		return nil, err
	}

	els := pack.DedupGalois(e.packer.GaloisElements(), e.s2c.GaloisElements())
	keys := kg.GenKeySet(e.sk, els)
	e.finish(keys)
	return e, nil
}

// newEngineShell validates params and builds the keyless engine frame
// shared by the client-side (NewEngine) and server-side
// (NewEvaluationEngine) constructors.
func newEngineShell(p Params) (*Engine, error) {
	bp, err := p.BFVParameters()
	if err != nil {
		return nil, err
	}
	ctx, err := bfv.NewContext(bp)
	if err != nil {
		return nil, err
	}
	if !ctx.Batching() {
		return nil, fmt.Errorf("core: parameters do not support batching (t=%d, N=%d)", p.T, 1<<p.LogN)
	}
	if p.LWEDim > ctx.N/2 || (ctx.N/2)%p.LWEDim != 0 {
		return nil, fmt.Errorf("core: LWE dimension %d must divide N/2=%d", p.LWEDim, ctx.N/2)
	}
	e := &Engine{
		P:    p,
		Ctx:  ctx,
		luts: make(map[any]*fbs.Evaluator),
	}
	fbsL, postL := p.Levels()
	if e.ctxF, err = ctx.AtLevel(fbsL); err != nil {
		return nil, fmt.Errorf("core: FBS level: %w", err)
	}
	if e.ctxP, err = ctx.AtLevel(postL); err != nil {
		return nil, fmt.Errorf("core: post level: %w", err)
	}
	e.tMod = ring.NewModulus(p.T)
	e.cod = bfv.NewEncoder(ctx)
	e.codP = bfv.NewEncoder(e.ctxP)
	return e, nil
}

// buildPacker constructs the working packer at the FBS level from the
// full-chain packing keys in packN/packBabies. At the full level the
// babies are used as-is; otherwise each is rescaled once at setup — the
// one-time cost that makes every subsequent Pack run on fewer limbs.
func (e *Engine) buildPacker() error {
	babies := e.packBabies
	if e.ctxF != e.Ctx {
		down := make([]*bfv.Ciphertext, len(babies))
		for i, b := range babies {
			var err error
			if down[i], err = e.Ctx.ModDown(b, e.ctxF.Level()); err != nil {
				return err
			}
		}
		babies = down
	}
	var err error
	e.packer, err = pack.NewPackerFromKeys(e.ctxF, e.packN, babies)
	return err
}

// finish installs the evaluation keys and builds the worker group; the
// packer, keyswitch key, and S2C transform must already be in place.
func (e *Engine) finish(keys *bfv.KeySet) {
	// Two evaluators per worker, one per schedule level; both read the
	// same full-chain key set (the ring kernels only touch the prefix
	// limbs of key polynomials, and reduced contexts carry the corrected
	// keyswitch digit constants).
	e.ev = bfv.NewEvaluator(e.ctxF, keys)
	e.evP = bfv.NewEvaluator(e.ctxP, keys)
	e.w0 = e.newWorker(e.ev, e.evP, e.codP, true)
	e.lanes = par.NewPool(func() *evalWorker {
		// newWorker only wraps the freshly forked evaluators and a brand-new
		// encoder in a per-lane struct; it reads no mutable Engine scratch,
		// and par.Pool serializes mk under its own mutex.
		//lint:allow scratchalias newWorker allocates per-lane state from a fresh ShallowCopy; no shared scratch is touched
		return e.newWorker(e.ev.ShallowCopy(), e.evP.ShallowCopy(), bfv.NewEncoder(e.ctxP), false)
	})
}

// vkey identifies one activation value in (channel, y, x) coordinates.
type vkey struct{ C, Y, X int }

// valSet is the inter-layer state: labeled LWE ciphertexts at modulus t
// carrying the previous layer's raw accumulators, with that layer's
// fused LUT still pending.
type valSet struct {
	C, H, W int
	vals    map[vkey]lwe.Ciphertext
	pending *fbs.Evaluator    // nil = values are already materialized
	fn      func(int64) int64 // plaintext shadow of pending (nil = identity)
}

func (e *Engine) zeroLWE() lwe.Ciphertext {
	return lwe.Ciphertext{A: make([]uint64, e.P.LWEDim), B: 0, Q: e.P.T}
}

// Cache keys of the parameterized LUTs in Engine.luts.
type (
	reluKey int // ReLU clamped to an activation bit width
	divKey  int // rounded divide by an avg-pool window size
)

// cachedLUT returns the FBS evaluator of fn cached under key, compiling
// it on first use.
func (e *Engine) cachedLUT(key any, fn func(int64) int64) (*fbs.Evaluator, error) {
	e.lutMu.Lock()
	defer e.lutMu.Unlock()
	if ev, ok := e.luts[key]; ok {
		return ev, nil
	}
	ev, err := fbs.NewEvaluator(e.ctxF, fbs.NewLUT(e.P.T, fn))
	if err != nil {
		return nil, err
	}
	e.luts[key] = ev
	return ev, nil
}

// lutFor returns the FBS evaluator of a conv's fused remap.
func (e *Engine) lutFor(q *qnn.QConv) (*fbs.Evaluator, error) {
	if q.MaxAcc >= int64(e.P.T/2) {
		return nil, fmt.Errorf("core: %s accumulator bound %d exceeds t/2 = %d", q.OpName(), q.MaxAcc, e.P.T/2)
	}
	return e.cachedLUT(q, q.Remap)
}

func (e *Engine) reluClampFor(actBits int) (*fbs.Evaluator, error) {
	lim := int64(1)<<(actBits-1) - 1
	return e.cachedLUT(reluKey(actBits), func(x int64) int64 {
		if x < 0 {
			return 0
		}
		if x > lim {
			return lim
		}
		return x
	})
}

func (e *Engine) divideFor(kk int) (*fbs.Evaluator, error) {
	return e.cachedLUT(divKey(kk), func(x int64) int64 { return roundDiv(x, int64(kk)) })
}

func roundDiv(a, b int64) int64 {
	if a >= 0 {
		return (a + b/2) / b
	}
	return -((-a + b/2) / b)
}

// packFBS packs an ordered list of LWE values, applies the pending LUT
// (when non-nil), and returns the slot-encoded BFV ciphertext at full Q.
// mask, when non-nil, holds 1 at slots carrying real values and 0 at
// structural zeros (padding, unused slots); it is applied after the LUT
// because tables with LUT(0) ≠ 0 (sigmoid, GELU, biased remaps) would
// otherwise turn structural zeros into non-zero activations.
func (wk *evalWorker) packFBS(ordered []lwe.Ciphertext, pending *fbs.Evaluator, mask []int64) (*bfv.Ciphertext, error) {
	e := wk.e
	if len(ordered) > e.Ctx.N {
		return nil, fmt.Errorf("core: %d values exceed %d slots", len(ordered), e.Ctx.N)
	}
	ct, err := e.packer.PackWith(wk.ev, wk.packSc, ordered)
	if err != nil {
		return nil, err
	}
	wk.stats.Packs++
	var fe *fbs.Evaluator
	if pending != nil {
		fe = wk.fbsFor(pending)
		ct, err = fe.Evaluate(wk.ev, ct)
		if err != nil {
			return nil, err
		}
		wk.stats.FBSCalls++
		wk.stats.CMult += fe.CMults
		wk.stats.SMult += fe.SMults
		wk.stats.HAdd += fe.HAdds
	}
	// Drop to the post level: the LUT's multiplicative depth is spent, so
	// the mask product, S2C, the next layer's accumulation, and the final
	// rescale all run on PostLevel limbs instead of FBSLevel.
	ct, err = e.Ctx.ModDown(ct, e.ctxP.Level())
	if err != nil {
		return nil, err
	}
	if fe != nil && mask != nil {
		pm := wk.codP.LiftToMul(wk.codP.EncodeSlots(mask))
		ct = wk.evP.MulPlain(ct, pm)
		wk.stats.PMult++
	}
	return ct, nil
}

// slotMask builds the structural-zero mask for a group: 1 for the first
// `valid` of `total` slots (or per the explicit validity slice).
func (e *Engine) slotMask(validity []bool) []int64 {
	m := make([]int64, e.Ctx.N)
	for i, ok := range validity {
		if ok {
			m[i] = 1
		}
	}
	return m
}

// toCoeffs applies S2C: slot i -> coefficient i.
func (wk *evalWorker) toCoeffs(ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	out, err := wk.e.s2c.Apply(wk.evP, ct)
	if err != nil {
		return nil, err
	}
	wk.stats.S2CCalls++
	return out, nil
}

// extract converts valid coefficients of a result ciphertext into
// dimension-n LWE ciphertexts at modulus t (Steps ②–③).
func (wk *evalWorker) extract(ct *bfv.Ciphertext, entries []coeffenc.ValidEntry) (map[vkey]lwe.Ciphertext, error) {
	e := wk.e
	a, b, err := e.Ctx.SwitchModulus(ct, e.P.QMid())
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(entries))
	for i, en := range entries {
		idx[i] = en.Coeff
	}
	cts := lwe.SampleExtract(lwe.RLWE{A: a, B: b, Q: e.P.QMid()}, idx)
	wk.stats.Extractions += len(cts)
	wk.stats.KeySwitches += len(cts)
	switched := make([]lwe.Ciphertext, len(cts))
	// One dimension switch costs N·digits AXPYs of length n; making the
	// cost explicit lets tiny extractions stay inline while layer-sized
	// ones fan out across per-lane Switchers.
	cost := e.Ctx.N * e.ksk.Digits * e.P.LWEDim
	wk.forEach(len(cts), par.Options{MinGrain: 1, ItemCost: cost}, func(ln *evalWorker, i int) {
		switched[i] = lwe.ModSwitch(ln.sw.Switch(cts[i]), e.P.T)
	})
	out := make(map[vkey]lwe.Ciphertext, len(entries))
	for i, en := range entries {
		out[vkey{en.Cout, en.Y, en.X}] = switched[i]
	}
	return out, nil
}

// scaledEvaluator compiles the composition scale·fn (fn = identity when
// nil) into an FBS evaluator. Pooling runs its trees in a scaled domain
// so that the extraction noise e_ms, which lands at fixed absolute
// magnitude, is crushed by the divide folded into the consumer's LUT —
// the same remap-compression argument as Section 3.3.
func (e *Engine) scaledEvaluator(fn func(int64) int64, scale int64) (*fbs.Evaluator, error) {
	l := fbs.NewLUT(e.P.T, func(x int64) int64 {
		if fn != nil {
			x = fn(x)
		}
		return x * scale
	})
	return fbs.NewEvaluator(e.ctxF, l)
}

// poolScale picks the largest power-of-two domain scale such that
// maxVal·scale stays below t/2 with slack for accumulated tree noise.
func (e *Engine) poolScale(maxVal int64) int64 {
	limit := int64(e.P.T/2) - int64(e.P.T/16)
	s := int64(1)
	for maxVal*s*2 <= limit {
		s *= 2
	}
	return s
}

// materializeScaled applies pending (or identity) composed with a domain
// scale, returning LWE values carrying value·scale.
func (wk *evalWorker) materializeScaled(vs *valSet, scale int64) (*valSet, error) {
	if vs.pending != nil && vs.fn == nil {
		return nil, fmt.Errorf("core: pending LUT without plaintext shadow")
	}
	ev, err := wk.e.scaledEvaluator(vs.fn, scale)
	if err != nil {
		return nil, err
	}
	scaled := &valSet{C: vs.C, H: vs.H, W: vs.W, vals: vs.vals, pending: ev}
	out, err := wk.forceMaterialize(scaled)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// materialize applies the pending LUT of vs (if any), returning int8
// activations as LWE values (pack → FBS → S2C → extract).
func (wk *evalWorker) materialize(vs *valSet) (*valSet, error) {
	if vs.pending == nil {
		return vs, nil
	}
	return wk.forceMaterialize(vs)
}

// forceMaterialize runs pack → FBS → S2C → extract over the value set,
// applying its pending LUT.
func (wk *evalWorker) forceMaterialize(vs *valSet) (*valSet, error) {
	out, err := wk.materializeSets([]*valSet{vs}, vs.pending)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// materializeSets applies lut to the values of every set through
// batchLUT, filling the slot-capacity packs across the sets in (set,
// sorted key) order, and returns each set's materialized
// (identity-pending) values. The slot order is fixed, so the
// redistribution is independent of scheduling.
func (wk *evalWorker) materializeSets(vss []*valSet, lut *fbs.Evaluator) ([]*valSet, error) {
	keys := make([][]vkey, len(vss))
	var flat []lwe.Ciphertext
	for i, vs := range vss {
		keys[i] = sortedKeys(vs)
		for _, k := range keys[i] {
			flat = append(flat, vs.vals[k])
		}
	}
	vals, err := wk.batchLUT(flat, lut)
	if err != nil {
		return nil, err
	}
	out := make([]*valSet, len(vss))
	for i, vs := range vss {
		m := make(map[vkey]lwe.Ciphertext, len(keys[i]))
		for _, k := range keys[i] {
			m[k], vals = vals[0], vals[1:]
		}
		out[i] = &valSet{C: vs.C, H: vs.H, W: vs.W, vals: m}
	}
	return out, nil
}

func sortedKeys(vs *valSet) []vkey {
	keys := make([]vkey, 0, len(vs.vals))
	for k := range vs.vals {
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

// convInputs assembles, packs, FBS-processes, and S2C-converts the input
// ciphertexts of a conv plan from the labeled LWE values of vs. The
// input batches are independent bootstrapping rounds, so they fan out
// across worker lanes (the value map is only read).
func (wk *evalWorker) convInputs(plan *coeffenc.Plan, vs *valSet) ([]*bfv.Ciphertext, error) {
	e := wk.e
	s := plan.Shape
	sub := plan.SubFactor()
	hw := plan.EH * plan.EW

	// Resolve layer-geometry coordinates to the producing layer's value
	// keys, handling the implicit flatten when a feature map feeds a
	// fully-connected layer (Cin = C·H·W, H = W = 1).
	resolve := func(c, h, w int) (vkey, bool) {
		if s.Cin == vs.C && s.H == vs.H && s.W == vs.W {
			return vkey{c, h, w}, true
		}
		if s.H == 1 && s.W == 1 && s.Cin == vs.C*vs.H*vs.W {
			return vkey{c / (vs.H * vs.W), (c / vs.W) % vs.H, c % vs.W}, true
		}
		return vkey{}, false
	}
	if _, ok := resolve(0, 0, 0); !ok {
		return nil, fmt.Errorf("core: layer expects %dx%dx%d input but got %dx%dx%d",
			s.Cin, s.H, s.W, vs.C, vs.H, vs.W)
	}

	inputs := make([]*bfv.Ciphertext, plan.InBatches)
	errs := make([]error, plan.InBatches)
	wk.forEach(plan.InBatches, par.Options{MinGrain: 1}, func(ln *evalWorker, ib int) {
		ordered := make([]lwe.Ciphertext, plan.CB*hw)
		validity := make([]bool, plan.CB*hw)
		for i := range ordered {
			ordered[i] = e.zeroLWE()
		}
		for cl := 0; cl < plan.CB; cl++ {
			c := ib*plan.CB + cl
			if c >= s.Cin {
				break
			}
			for eh := 0; eh < plan.EH; eh++ {
				for ew := 0; ew < plan.EW; ew++ {
					h := eh*sub - s.Pad
					w := ew*sub - s.Pad
					if h < 0 || h >= s.H || w < 0 || w >= s.W {
						continue
					}
					key, _ := resolve(c, h, w)
					if v, ok := vs.vals[key]; ok {
						ordered[cl*hw+eh*plan.EW+ew] = v
						validity[cl*hw+eh*plan.EW+ew] = true
					}
				}
			}
		}
		ct, err := ln.packFBS(ordered, vs.pending, e.slotMask(validity))
		if err != nil {
			errs[ib] = err
			return
		}
		ct, err = ln.toCoeffs(ct)
		if err != nil {
			errs[ib] = err
			return
		}
		inputs[ib] = ct
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return inputs, nil
}

// convAccumulate runs Step ① on prepared coefficient-encoded inputs and
// returns the accumulator ciphertexts (one per output batch). Output
// batches are independent (each reads the shared inputs and writes its
// own accumulator), so they fan out across worker lanes.
func (wk *evalWorker) convAccumulate(q *qnn.QConv, plan *coeffenc.Plan, inputs []*bfv.Ciphertext) []*bfv.Ciphertext {
	e := wk.e
	k3d := q.Weights
	accs := make([]*bfv.Ciphertext, plan.OutBatches)
	// One output batch costs InBatches plaintext products (2·limbs·N
	// word multiplies each at the post level) plus the kernel encodes.
	cost := plan.InBatches * 2 * e.ctxP.Level() * e.Ctx.N
	wk.forEach(plan.OutBatches, par.Options{MinGrain: 1, ItemCost: cost}, func(ln *evalWorker, ob int) {
		var acc *bfv.Ciphertext
		for ib := 0; ib < plan.InBatches; ib++ {
			kv := plan.EncodeKernel(k3d, ib, ob)
			pm := ln.codP.LiftToMul(ln.codP.EncodeCoeffs(kv))
			if acc == nil {
				acc = ln.evP.MulPlain(inputs[ib], pm)
			} else {
				ln.evP.MulPlainAndAdd(inputs[ib], pm, acc)
				ln.stats.HAdd++
			}
			ln.stats.PMult++
		}
		// Bias: added at every valid output coefficient.
		biasVec := make([]int64, e.Ctx.N)
		for _, en := range plan.ValidCoeffs(ob) {
			biasVec[en.Coeff] = q.Bias[en.Cout]
		}
		acc = ln.evP.AddPlain(acc, ln.codP.EncodeCoeffs(biasVec))
		accs[ob] = acc
	})
	return accs
}

// convLayer runs the full loop for one quantized linear layer, returning
// the raw accumulators as LWE values with the layer's LUT pending.
func (wk *evalWorker) convLayer(q *qnn.QConv, vs *valSet) (*valSet, error) {
	e := wk.e
	plan, err := coeffenc.NewPlan(q.Shape, e.Ctx.N, coeffenc.AthenaOrder)
	if err != nil {
		return nil, err
	}
	inputs, err := wk.convInputs(plan, vs)
	if err != nil {
		return nil, err
	}
	accs := wk.convAccumulate(q, plan, inputs)
	out := &valSet{C: q.Shape.Cout, H: q.Shape.OutH(), W: q.Shape.OutW(), vals: make(map[vkey]lwe.Ciphertext)}
	for ob, acc := range accs {
		m, err := wk.extract(acc, plan.ValidCoeffs(ob))
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out.vals[k] = v
		}
	}
	out.pending, err = e.lutFor(q)
	if err != nil {
		return nil, err
	}
	out.fn = q.Remap
	return out, nil
}

// addLWE returns a+b at modulus t (phase addition under the shared key).
func (e *Engine) addLWE(a, b lwe.Ciphertext) lwe.Ciphertext {
	m := e.tMod
	out := lwe.Ciphertext{A: make([]uint64, len(a.A)), Q: e.P.T}
	for i := range a.A {
		out.A[i] = m.Add(a.A[i], b.A[i])
	}
	out.B = m.Add(a.B, b.B)
	return out
}

// subLWE returns a−b at modulus t.
func (e *Engine) subLWE(a, b lwe.Ciphertext) lwe.Ciphertext {
	m := e.tMod
	out := lwe.Ciphertext{A: make([]uint64, len(a.A)), Q: e.P.T}
	for i := range a.A {
		out.A[i] = m.Sub(a.A[i], b.A[i])
	}
	out.B = m.Sub(a.B, b.B)
	return out
}
