package core

import (
	"fmt"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/par"
	"athena/internal/qnn"
)

// The three-phase inference API makes the client/server boundary
// explicit: the client encrypts its input and decrypts the result; the
// server evaluates the network on ciphertexts only. Engine.Infer and
// Engine.InferBatch remain as the convenience wrappers running all
// three phases.
//
//	enc, _ := engine.EncryptInput(net, x)        // client
//	out, _ := engine.EvaluateEncrypted(net, enc) // server (no secret key use)
//	logits, _ := engine.DecryptLogits(out)       // client
//
// Every encrypted evaluation runs through one evaluation loop,
// EvaluateEncryptedBatch; a single image is a batch of one. Batches of
// two or more images share their functional-bootstrapping rounds; a
// batch of one has nothing to share, so each pending activation LUT
// stays fused into the next layer's packing.

// EncryptedInput is the client's ciphertext bundle for one inference:
// the first linear layer's coefficient-encoded input ciphertexts.
type EncryptedInput struct {
	model  string
	inputs []*bfv.Ciphertext
	plan   *coeffenc.Plan
}

// Size returns the ciphertext count of the bundle.
func (in *EncryptedInput) Size() int { return len(in.inputs) }

// EncryptedLogits is the server's result bundle: the final layer's
// accumulator ciphertexts plus the plan metadata needed to read them.
type EncryptedLogits struct {
	model string
	final *finalResult
}

// EncryptInput encodes and encrypts the quantized input for the
// network's first linear layer (the client-side prologue).
func (e *Engine) EncryptInput(q *qnn.QNetwork, x *qnn.IntTensor) (*EncryptedInput, error) {
	if e.enc == nil {
		return nil, ErrNoSecretKey
	}
	first, err := firstConv(q)
	if err != nil {
		return nil, err
	}
	if x.C != first.Shape.Cin || x.H != first.Shape.H || x.W != first.Shape.W {
		return nil, fmt.Errorf("core: input %dx%dx%d does not match first layer %dx%dx%d",
			x.C, x.H, x.W, first.Shape.Cin, first.Shape.H, first.Shape.W)
	}
	plan, err := coeffenc.NewPlan(first.Shape, e.Ctx.N, coeffenc.AthenaOrder)
	if err != nil {
		return nil, err
	}
	m3 := x.To3D()
	inputs := make([]*bfv.Ciphertext, plan.InBatches)
	for ib := range inputs {
		inputs[ib] = e.enc.Encrypt(e.cod.EncodeCoeffs(plan.EncodeInput(m3, ib)))
	}
	return &EncryptedInput{model: q.Name, inputs: inputs, plan: plan}, nil
}

// EvaluateEncrypted runs the network on the encrypted input and returns
// the encrypted logits: EvaluateEncryptedBatch on a batch of one.
func (e *Engine) EvaluateEncrypted(q *qnn.QNetwork, in *EncryptedInput) (*EncryptedLogits, error) {
	outs, err := e.EvaluateEncryptedBatch(q, []*EncryptedInput{in})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// EvaluateEncryptedBatch runs the network over a batch of independently
// encrypted inputs (all under this engine's keys) and returns one
// encrypted logits bundle per input, in order. Only public material
// (evaluation keys, packing keys, LWE keyswitching keys) is used, so it
// works on evaluation-only engines.
//
// Linear layers and conversions run per image, fanned out across the
// engine's worker lanes (each image's state is independent there). From
// two images up, the pending activations of all images are packed
// together before each convolution (the FBS slot capacity usually
// dwarfs one image's layer), so the dominant FBS cost is paid once per
// ⌈values·B/N⌉ groups instead of once per image — the throughput side
// of the paper's "batch processing of precise non-linear functions".
// After each shared round the activations return to their images as LWE
// values, and each image's convolution consumes them with an identity
// (FBS-free) packing pass.
func (e *Engine) EvaluateEncryptedBatch(q *qnn.QNetwork, ins []*EncryptedInput) ([]*EncryptedLogits, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	states := make([]*inferState, len(ins))
	for i, in := range ins {
		if in == nil {
			return nil, fmt.Errorf("core: input %d is nil", i)
		}
		if in.model != q.Name {
			return nil, fmt.Errorf("core: input %d encrypted for model %q, evaluating %q", i, in.model, q.Name)
		}
		states[i] = &inferState{firstInputs: in.inputs, firstPlan: in.plan}
	}
	defer e.flushStats()
	e.netABits = q.ABits
	if e.netABits < 2 {
		e.netABits = 8
	}
	// eachImage advances every image's state by f, fanned out across the
	// worker group; every image is a heavy item (at least one linear
	// layer), so no cost floor applies. A batch of one runs on the
	// top-level worker, which keeps the operator-level fan-outs.
	eachImage := func(f func(ln *evalWorker, st *inferState) (*inferState, error)) error {
		errs := make([]error, len(states))
		e.w0.forEach(len(states), par.Options{MinGrain: 1}, func(ln *evalWorker, i int) {
			states[i], errs[i] = f(ln, states[i])
		})
		return firstErr(errs)
	}
	for bi, b := range q.Blocks {
		last := bi == len(q.Blocks)-1
		switch blk := b.(type) {
		case qnn.QSeq:
			for oi, op := range blk {
				lastOp := last && oi == len(blk)-1
				// The batch's FBS barrier: when every image carries the
				// same pending LUT, apply it across the batch in shared
				// packs. With one image nothing is shared, so the pending
				// LUT stays fused into this convolution's own pack.
				if _, isConv := op.(*qnn.QConv); isConv && len(states) > 1 && states[0].vs != nil && states[0].vs.pending != nil {
					if err := e.w0.materializeBatch(states); err != nil {
						return nil, err
					}
				}
				if err := eachImage(func(ln *evalWorker, st *inferState) (*inferState, error) {
					return ln.applyOp(op, st, lastOp)
				}); err != nil {
					return nil, err
				}
			}
		case *qnn.QResidual:
			// Residual joins interleave linear and non-linear work
			// image-locally, so each image runs the block on its own.
			if err := eachImage(func(ln *evalWorker, st *inferState) (*inferState, error) {
				return ln.residualBlock(blk, st)
			}); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("core: unsupported block %T", b)
		}
	}
	outs := make([]*EncryptedLogits, len(states))
	for i, st := range states {
		if st.final == nil {
			return nil, errNoFinal
		}
		outs[i] = &EncryptedLogits{model: q.Name, final: st.final}
	}
	return outs, nil
}

// DecryptLogits recovers the output logits (the client-side epilogue:
// decryption plus the final remap in the clear).
func (e *Engine) DecryptLogits(out *EncryptedLogits) ([]int64, error) {
	if e.dec == nil {
		return nil, ErrNoSecretKey
	}
	if out == nil || out.final == nil {
		return nil, errNoFinal
	}
	f := out.final
	s := f.conv.Shape
	logits := make([]int64, s.Outputs())
	tm := e.Ctx.TMod
	for ob, acc := range f.accs {
		pt := e.dec.Decrypt(acc)
		for _, en := range f.plan.ValidCoeffs(ob) {
			v := tm.Centered(pt.Coeffs[en.Coeff])
			logits[(en.Cout*s.OutH()+en.Y)*s.OutW()+en.X] = f.conv.Remap(v)
		}
	}
	return logits, nil
}
