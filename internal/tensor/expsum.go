package tensor

import "math"

// ExpSum kernel: the softmax mass of a logit range in one vectorized pass.
//
// The masked product of Duet's Algorithm 3 needs, per constrained column,
// Σ_{v∈I} softmax(seg)_v = Σ_{v∈I} e^{seg_v-m} / Σ_v e^{seg_v-m} with m the
// segment max. ExpSum returns one such partial sum without materializing
// probabilities, so the caller computes the column factor as
// in / (below + in + above) from three calls over disjoint ranges.
//
// Every tier evaluates the same float32 program per element, op for op:
//
//	y = min(x - m, 0)                       (an element above m counts as m)
//	y < expSumLo → contributes exactly +0   (−Inf too; NaN is not < lo)
//	t = y·log2e + 1.5·2²³                   (round-to-nearest-even via the
//	k = t - 1.5·2²³                          magic constant: k = round(y·log2e))
//	r = (y - k·C1) - k·C2                   (Cody–Waite reduction, |r| ≤ ln2/2)
//	p = ((((P0·r+P1)·r+P2)·r+P3)·r+P4)·r+P5 (Cephes expf polynomial)
//	e = ((p·r²) + r + 1) · 2^k              (2^k built from t's low bits)
//
// with every multiply and add rounded separately to float32 (no FMA), and
// accumulates element i into lane i mod 8 in ascending order, the eight
// lanes reduced as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)). The generic tier
// spells that out in Go; the AVX2 tier keeps the lanes in one YMM register
// and the SSE tier in two XMM registers, so every tier is bitwise identical.
// A NaN input (or a NaN m) makes the sum NaN on every tier.

// expSumLo is the cutoff below which an element contributes exactly 0:
// e^-87 ≈ 1.6e-38 of the row max, and round(-87·log2e) = -126 keeps 2^k
// a normal float for every element that is kept.
const expSumLo = -87

// Constants of the float32 exp program above (Cephes expf).
const (
	expLog2e = 1.44269504088896341
	expMagic = 12582912 // 1.5·2²³: adding it rounds to an integer in the low mantissa bits
	expC1    = 0.693359375
	expC2    = -2.12194440e-4
	expP0    = 1.9875691500e-4
	expP1    = 1.3981999507e-3
	expP2    = 8.3334519073e-3
	expP3    = 4.1665795894e-2
	expP4    = 1.6666665459e-1
	expP5    = 5.0000001201e-1
	// expBias maps the bits of t = k + 1.5·2²³ to the biased exponent of
	// 2^k: bits(t) - bits(1.5·2²³) + 127, modulo 2³².
	expBias = uint32(127 - 0x4B400000 + 1<<32)
)

// ExpSum returns Σ_i e^{x[i]-m}, evaluated in float32 by the active kernel
// tier. m should be at least every x[i] (the caller's row max); an element
// above m counts as e^0. Elements more than 87 below m contribute exactly 0.
// The result is bitwise identical on every tier.
func ExpSum(x []float32, m float32) float32 {
	return expSumImpl(x, m)
}

// expShifted is the per-element program, shared by the generic tier and the
// tails of the asm tiers.
func expShifted(x, m float32) float32 {
	y := x - m
	if 0 < y {
		y = 0
	}
	if y < expSumLo {
		return 0
	}
	t := float32(y*expLog2e) + expMagic
	k := t - expMagic
	r := y - float32(k*expC1)
	r = r - float32(k*expC2)
	z := float32(r * r)
	p := float32(expP0*r) + expP1
	p = float32(p*r) + expP2
	p = float32(p*r) + expP3
	p = float32(p*r) + expP4
	p = float32(p*r) + expP5
	p = float32(p*z) + r
	p = p + 1
	return p * math.Float32frombits((math.Float32bits(t)+expBias)<<23)
}

// expSumFinish adds the elements of tail (fewer than 8, the part of the
// input past the last full 8-block) into lanes 0.., then reduces the lanes.
func expSumFinish(acc *[8]float32, tail []float32, m float32) float32 {
	for j, v := range tail {
		acc[j] += expShifted(v, m)
	}
	return ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

func expSumGeneric(x []float32, m float32) float32 {
	var acc [8]float32
	n := len(x) &^ 7
	for i := 0; i < n; i += 8 {
		blk := x[i : i+8 : i+8]
		for j, v := range blk {
			acc[j] += expShifted(v, m)
		}
	}
	return expSumFinish(&acc, x[n:], m)
}
