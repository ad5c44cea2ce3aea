package core

import (
	"fmt"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/lwe"
	"athena/internal/qnn"
)

// InferBatch runs the same network on B inputs under encryption and
// returns the decrypted logits per input: EncryptInput for each image,
// one EvaluateEncryptedBatch over all of them (which shares the
// functional bootstrapping from two images up), then DecryptLogits for
// each image.
func (e *Engine) InferBatch(q *qnn.QNetwork, xs []*qnn.IntTensor) ([][]int64, error) {
	// Encryption stays serial: it consumes the engine's PRNG stream, and
	// the ciphertext bytes must not depend on scheduling.
	ins := make([]*EncryptedInput, len(xs))
	for i, x := range xs {
		in, err := e.EncryptInput(q, x)
		if err != nil {
			return nil, fmt.Errorf("core: input %d: %w", i, err)
		}
		ins[i] = in
	}
	outs, err := e.EvaluateEncryptedBatch(q, ins)
	if err != nil {
		return nil, err
	}
	logits := make([][]int64, len(outs))
	for i, out := range outs {
		if logits[i], err = e.DecryptLogits(out); err != nil {
			return nil, err
		}
	}
	return logits, nil
}

// materializeBatch applies the (shared) pending LUT of all images'
// value sets in packs filled across the batch (materializeSets), then
// replaces each image's state with its materialized values.
func (wk *evalWorker) materializeBatch(states []*inferState) error {
	pending := states[0].vs.pending
	vss := make([]*valSet, len(states))
	for i, st := range states {
		if st.vs == nil || st.vs.pending != pending {
			return fmt.Errorf("core: batch images diverged at materialization")
		}
		vss[i] = st.vs
	}
	out, err := wk.materializeSets(vss, pending)
	if err != nil {
		return err
	}
	for i, vs := range out {
		states[i] = &inferState{vs: vs}
	}
	return nil
}

// extractFlat extracts coefficients 0..count-1 of ct as LWE values in
// positional order.
func (wk *evalWorker) extractFlat(ct *bfv.Ciphertext, count int) ([]lwe.Ciphertext, error) {
	entries := make([]coeffenc.ValidEntry, count)
	for i := range entries {
		entries[i] = coeffenc.ValidEntry{Coeff: i, Cout: 0, Y: 0, X: i}
	}
	m, err := wk.extract(ct, entries)
	if err != nil {
		return nil, err
	}
	out := make([]lwe.Ciphertext, count)
	for i := 0; i < count; i++ {
		out[i] = m[vkey{0, 0, i}]
	}
	return out, nil
}
