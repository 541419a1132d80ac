package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expSumCases builds ExpSum inputs over lengths 0–67 at unaligned offsets,
// with a mix of ordinary logits, −Inf, values far below the max and the
// occasional NaN. It returns each input with the m it is evaluated against.
func expSumCases() (xs [][]float32, ms []float32) {
	rng := rand.New(rand.NewSource(44))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for variant := 0; variant < 4; variant++ {
				xb := make([]float32, n+off)
				for i := range xb {
					xb[i] = rng.Float32()*24 - 12
					switch r := rng.Intn(16); {
					case variant >= 1 && r == 0:
						xb[i] = float32(math.Inf(-1))
					case variant >= 1 && r == 1:
						xb[i] = -200 + rng.Float32()
					case variant == 3 && r == 2:
						xb[i] = float32(math.NaN())
					}
				}
				x := xb[off:]
				m := float32(math.Inf(-1))
				for _, v := range x {
					if v > m {
						m = v
					}
				}
				if variant == 2 {
					m += rng.Float32() * 3 // m above the max, as a caller may pass
				}
				xs = append(xs, x)
				ms = append(ms, m)
			}
		}
	}
	return xs, ms
}

// TestExpSumTiersBitwiseMatchGeneric holds every tier's ExpSum to the
// generic reference bit for bit; a NaN anywhere in the input must give a
// NaN sum on every tier.
func TestExpSumTiersBitwiseMatchGeneric(t *testing.T) {
	xs, ms := expSumCases()
	want := make([]float32, len(xs))
	for i := range xs {
		want[i] = expSumGeneric(xs[i], ms[i])
	}
	withTier(t, func(t *testing.T, tier string) {
		for i, x := range xs {
			got := ExpSum(x, ms[i])
			hasNaN := false
			for _, v := range x {
				hasNaN = hasNaN || v != v
			}
			if hasNaN {
				if !math.IsNaN(float64(got)) {
					t.Fatalf("case %d (n=%d): NaN input gave %v", i, len(x), got)
				}
				continue
			}
			if math.Float32bits(got) != math.Float32bits(want[i]) {
				t.Fatalf("case %d (n=%d, m=%v): %v (%#x) vs generic %v (%#x)", i, len(x), ms[i],
					got, math.Float32bits(got), want[i], math.Float32bits(want[i]))
			}
		}
	})
}

// TestExpSumDropsNegligibleTerms checks the exact-zero contract: −Inf and
// anything more than 87 below m add nothing, so such a range sums to +0.
func TestExpSumDropsNegligibleTerms(t *testing.T) {
	x := make([]float32, 37)
	for i := range x {
		x[i] = float32(math.Inf(-1))
		if i%3 == 0 {
			x[i] = -90
		}
	}
	withTier(t, func(t *testing.T, tier string) {
		if got := ExpSum(x, 0); math.Float32bits(got) != 0 {
			t.Fatalf("sum of negligible terms = %v, want +0", got)
		}
		if got := ExpSum([]float32{0}, 0); got != 1 {
			t.Fatalf("ExpSum([0], 0) = %v, want 1", got)
		}
		if got := ExpSum(nil, 0); math.Float32bits(got) != 0 {
			t.Fatalf("ExpSum(nil) = %v, want +0", got)
		}
	})
}

// TestExpSumElementAccuracy bounds the float32 exp program against math.Exp
// over the kept range.
func TestExpSumElementAccuracy(t *testing.T) {
	worst := 0.0
	for y := float32(-86.9); y <= 0; y += 0.0137 {
		got := float64(expShifted(y, 0))
		want := math.Exp(float64(y))
		if rel := math.Abs(got-want) / want; rel > worst {
			worst = rel
		}
	}
	if worst > 4e-7 {
		t.Fatalf("worst relative error of exp program = %.3g, want <= 4e-7", worst)
	}
}

func BenchmarkExpSumTier(b *testing.B) {
	orig := KernelTier()
	defer SetKernelTier(orig)
	x := make([]float32, 1024)
	rng := rand.New(rand.NewSource(3))
	for i := range x {
		x[i] = rng.Float32()*16 - 16
	}
	for _, tier := range KernelTiers() {
		b.Run(tier, func(b *testing.B) {
			if err := SetKernelTier(tier); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(x)) * 4)
			var s float32
			for i := 0; i < b.N; i++ {
				s += ExpSum(x, 0)
			}
			if s < 0 {
				b.Fatal(fmt.Sprint(s))
			}
		})
	}
}
