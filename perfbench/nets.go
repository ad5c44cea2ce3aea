package main

import (
	"math/rand/v2"

	"athena/internal/coeffenc"
	"athena/internal/qnn"
)

// benchNet is the 3-layer conv→conv→FC network of the root package's
// BenchmarkEncryptedInference: the same shapes, multipliers and weight
// stream (PCG(9, 9)). It is rebuilt here because that constructor lives in a
// test file. Two ReLU layers mean two FBS rounds with S2C between them.
func benchNet() *qnn.QNetwork {
	rng := rand.New(rand.NewPCG(9, 9))
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
	return &qnn.QNetwork{
		Name: "bench", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			mk(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16),
			mk(coeffenc.ConvShape{H: 6, W: 6, Cin: 2, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16),
			mk(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8),
		}},
	}
}

// randomInput draws a 3-bit input image for q from rng, the input range
// both benchmark networks were sized for.
func randomInput(q *qnn.QNetwork, rng *rand.Rand) *qnn.IntTensor {
	x := qnn.NewIntTensor(q.InC, q.InH, q.InW)
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}
	return x
}

// inputStream returns the workload's input generator for one seed and
// one independent stream index (a caller, or the setup phase).
func inputStream(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x1b9d^stream))
}
