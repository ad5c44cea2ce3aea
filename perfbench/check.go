package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"athena/internal/qnn"
)

// Output check. The encrypted pipeline is not bit-exact, so every
// decrypted logit is compared with QNetwork.ForwardInt under a per-logit
// bound derived from the noise model of DESIGN.md ("Noise scaling"),
// never from observed deviations:
//
//   - the input is encrypted exactly, so the first accumulator is exact;
//   - every hidden activation carries its remap error, at most ±1
//     (variance ≤ 1), plus the extraction error e_ms of one
//     activation-scale extraction, σ = √(n/18) for LWE dimension n
//     (variance n/18). The batched serving path re-extracts every
//     materialized activation before the next layer consumes it, so e_ms
//     reaches the next layer undivided by any remap;
//   - these independent zero-mean errors propagate to each later layer's
//     outputs through its weights and multiplier: an output's variance is
//     multiplier² · Σ W² · (input variance);
//   - the bound is noiseZ standard deviations of the final logit's error,
//     plus 1 for the final rounding.
//
// A per-logit bound alone cannot see a defect that keeps logits inside
// it, such as a permutation of DemoNet's small logits. The run therefore
// also fails when the mean squared deviation exceeds noiseVarRatio times
// the model's mean variance (final rounding included): the model bounds
// the remap part by construction, and the factor leaves room for the
// keyswitch residue that √(n/18) omits.
//
// Worst-case alignment of the ±1 remap errors alone (Σ|W|·multiplier + 1)
// gives 3 on DemoNet's widest logit row, which the served path exceeds:
// its re-extraction adds e_ms at activation scale, and aligned e_ms terms
// would bound nothing inside the ±7 logit range. The variance form keeps
// both terms and stays meaningful.

// noiseVarRatio bounds the run's mean squared deviation as a multiple of
// the model's mean variance.
const noiseVarRatio = 2

// noiseZ is the tail multiple of the bound: a Gaussian error exceeds six
// standard deviations with probability about 2·10⁻⁹, so a run of a few
// thousand logits is not expected to raise a false alarm.
const noiseZ = 6

// noiseModel returns each logit's bound and the model variance of its
// error, final rounding (at most ±1/2, variance ≤ 1/4) included.
func noiseModel(q *qnn.QNetwork, lweDim int) ([]int64, []float64, error) {
	var convs []*qnn.QConv
	for _, b := range q.Blocks {
		seq, ok := b.(qnn.QSeq)
		if !ok {
			return nil, nil, fmt.Errorf("check: block %T has no noise model", b)
		}
		for _, op := range seq {
			c, ok := op.(*qnn.QConv)
			if !ok || (c.Act != qnn.ActReLU && c.Act != qnn.ActNone) {
				return nil, nil, fmt.Errorf("check: op %s has no noise model", op.OpName())
			}
			convs = append(convs, c)
		}
	}
	actVar := 1 + float64(lweDim)/18
	v := make([]float64, q.InC*q.InH*q.InW) // the input is exact
	for li, c := range convs {
		s := c.Shape
		if len(v) != s.Cin*s.H*s.W {
			return nil, nil, fmt.Errorf("check: layer %d expects %d inputs, got %d", li, s.Cin*s.H*s.W, len(v))
		}
		nv := make([]float64, s.Cout*s.OutH()*s.OutW())
		for co := 0; co < s.Cout; co++ {
			for y := 0; y < s.OutH(); y++ {
				for xx := 0; xx < s.OutW(); xx++ {
					var sum float64
					for ci := 0; ci < s.Cin; ci++ {
						for i := 0; i < s.K; i++ {
							h := y*s.Stride + i - s.Pad
							if h < 0 || h >= s.H {
								continue
							}
							for j := 0; j < s.K; j++ {
								w := xx*s.Stride + j - s.Pad
								if w < 0 || w >= s.W {
									continue
								}
								wt := float64(c.Weights[co][ci][i][j])
								sum += wt * wt * v[(ci*s.H+h)*s.W+w]
							}
						}
					}
					o := (co*s.OutH()+y)*s.OutW() + xx
					nv[o] = c.Multiplier * c.Multiplier * sum
					if li < len(convs)-1 {
						nv[o] += actVar
					}
				}
			}
		}
		v = nv
	}
	bounds := make([]int64, len(v))
	for i, vi := range v {
		bounds[i] = 1 + int64(math.Floor(noiseZ*math.Sqrt(vi)))
		v[i] += 0.25
	}
	return bounds, v, nil
}

// checker accumulates the output check over a run. Safe for concurrent
// use.
type checker struct {
	lweDim int

	mu      sync.Mutex
	logits  int
	exact   int
	outside int
	sqDev   float64       // Σ deviation²
	modVar  float64       // Σ model variance
	hist    map[int64]int // deviation (got − ForwardInt) → count
}

func newChecker(lweDim int) *checker { return &checker{lweDim: lweDim, hist: map[int64]int{}} }

// check compares one request's decrypted logits with the plaintext
// reference and reports whether every logit lies inside its bound.
func (c *checker) check(q *qnn.QNetwork, x *qnn.IntTensor, got []int64) (bool, error) {
	want := q.ForwardInt(x).Data
	bound, vars, err := noiseModel(q, c.lweDim)
	if err != nil {
		return false, err
	}
	if len(got) != len(want) {
		return false, fmt.Errorf("check: %d logits, want %d", len(got), len(want))
	}
	ok := true
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, g := range got {
		d := g - want[i]
		c.hist[d]++
		c.logits++
		c.sqDev += float64(d * d)
		c.modVar += vars[i]
		if d == 0 {
			c.exact++
		}
		if d > bound[i] || d < -bound[i] {
			c.outside++
			ok = false
		}
	}
	return ok, nil
}

// exactShare is the share of logits equal to ForwardInt.
func (c *checker) exactShare() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.logits == 0 {
		return 0
	}
	return float64(c.exact) / float64(c.logits)
}

// histogram renders the deviation histogram as "dev:count" pairs.
func (c *checker) histogram() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	devs := make([]int64, 0, len(c.hist))
	for d := range c.hist {
		devs = append(devs, d)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	parts := make([]string, len(devs))
	for i, d := range devs {
		parts[i] = fmt.Sprintf("%+d:%d", d, c.hist[d])
	}
	return strings.Join(parts, " ")
}

// noiseRatio is the run's mean squared deviation over the model's mean
// variance.
func (c *checker) noiseRatio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.modVar == 0 {
		return 0
	}
	return c.sqDev / c.modVar
}

// passed reports whether the run met the output check: no logit outside
// its bound and the deviations' energy within the model's.
func (c *checker) passed() bool {
	return c.outsideCount() == 0 && c.noiseRatio() <= noiseVarRatio
}

func (c *checker) outsideCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outside
}

func (c *checker) logitCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logits
}

// merge adds o's counts into c.
func (c *checker) merge(o *checker) {
	o.mu.Lock()
	logits, exact, outside, sqDev, modVar := o.logits, o.exact, o.outside, o.sqDev, o.modVar
	hist := make(map[int64]int, len(o.hist))
	for d, n := range o.hist {
		hist[d] = n
	}
	o.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logits += logits
	c.exact += exact
	c.outside += outside
	c.sqDev += sqDev
	c.modVar += modVar
	for d, n := range hist {
		c.hist[d] += n
	}
}
