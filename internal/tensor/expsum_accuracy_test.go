package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"duet/internal/nn"
	"duet/internal/tensor"
)

// TestExpSumIntervalMassMatchesSoftmax checks the one-pass masked-product
// factor in / (below + in + above), built from three ExpSum calls, against
// the interval mass of the float64 nn.Softmax, on every kernel tier, for
// column domains up to 4096 values.
func TestExpSumIntervalMassMatchesSoftmax(t *testing.T) {
	orig := tensor.KernelTier()
	defer tensor.SetKernelTier(orig)
	rng := rand.New(rand.NewSource(7))
	type tc struct {
		seg    []float32
		lo, hi int
	}
	var cases []tc
	for _, ndv := range []int{1, 2, 3, 7, 8, 9, 31, 64, 100, 255, 513, 1000, 2048, 4096} {
		for rep := 0; rep < 6; rep++ {
			seg := make([]float32, ndv)
			scale := float32(1 + rep*3) // up to sharply peaked distributions
			for i := range seg {
				seg[i] = float32(rng.NormFloat64()) * scale
			}
			lo := rng.Intn(ndv)
			hi := lo + rng.Intn(ndv-lo)
			cases = append(cases, tc{seg, lo, hi})
		}
	}
	probs := make([]float32, 4096)
	for _, tier := range tensor.KernelTiers() {
		if err := tensor.SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			p := probs[:len(c.seg)]
			nn.Softmax(p, c.seg)
			var want float64
			for v := c.lo; v <= c.hi; v++ {
				want += float64(p[v])
			}
			m := c.seg[0]
			for _, v := range c.seg {
				m = max(m, v)
			}
			below := tensor.ExpSum(c.seg[:c.lo], m)
			in := tensor.ExpSum(c.seg[c.lo:c.hi+1], m)
			above := tensor.ExpSum(c.seg[c.hi+1:], m)
			got := float64(in) / (float64(below) + float64(in) + float64(above))
			if want < 1e-30 {
				continue // below float32 resolution of the kept terms
			}
			if rel := math.Abs(got-want) / want; rel > 1e-5 {
				t.Fatalf("%s: ndv=%d [%d,%d]: factor %.9g vs softmax mass %.9g (rel %.3g)",
					tier, len(c.seg), c.lo, c.hi, got, want, rel)
			}
		}
	}
}
