package serve

import (
	"math/rand/v2"

	"athena/internal/coeffenc"
	"athena/internal/qnn"
)

// DemoNet builds the deterministic "wire-demo" network shared by
// cmd/athena-serve's default configuration, examples/clientserver, the
// serve integration tests, and the ServeThroughput benchmark: a 4×4
// conv+ReLU layer feeding a 4-class dense head, weights drawn from a
// fixed PRNG so every process builds byte-identical models. The sizing
// is deliberate: the 1/16 first-layer multiplier keeps activations ≤ 3
// and the 32-input, 1/8-multiplier dense head keeps the accumulated per-activation
// e_ms noise within the repo's ±3 batched tolerance at t = 257 (a
// wider 72-input head was measured at ±6). ±3 is the bound for batches
// of two or more, whose shared FBS round adds one extraction rounding;
// a batch of one takes the fused single-image path.
func DemoNet() *qnn.QNetwork {
	rng := rand.New(rand.NewPCG(7, 8))
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
			Act: act, Multiplier: mult, ActBits: 4, MaxAcc: 120, IsDense: shape.H == 1}
	}
	return &qnn.QNetwork{
		Name: "wire-demo", InC: 1, InH: 4, InW: 4, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			mk(coeffenc.ConvShape{H: 4, W: 4, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16),
			mk(coeffenc.FCShape(2*4*4, 4), qnn.ActNone, 1.0/8),
		}},
	}
}

// DemoInput draws a deterministic input tensor for DemoNet from seed.
func DemoInput(seed uint64) *qnn.IntTensor {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	x := qnn.NewIntTensor(1, 4, 4)
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}
	return x
}
