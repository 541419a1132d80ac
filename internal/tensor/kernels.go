package tensor

import (
	"fmt"
	"os"
)

// Kernel tier dispatch.
//
// Every hot-path primitive in this package (Saxpy, SaxpyI8, ExpSum and the
// blocked GEMM microkernel behind Mul/MulBT/MulATAdd) is reached through an impl
// pointer selected once at init from CPU feature detection: "avx2" (256-bit,
// amd64 with AVX2), "sse" (128-bit, any amd64), "neon" (128-bit, arm64) and
// "generic" (pure Go, every platform). DUET_KERNEL=<tier> overrides the
// choice at startup; SetKernelTier switches tiers from tests and benchmarks.
//
// The contract every tier must honor is bitwise equivalence with the generic
// reference: each output element accumulates its k terms in ascending order,
// and every multiply and every add rounds separately to float32. The generic
// loops spell the second half out with explicit float32(...) conversions,
// which the Go spec guarantees are rounding points — so the compiler may not
// contract a*x+y into a fused multiply-add on platforms where it otherwise
// would (arm64). For the same reason the asm tiers use unfused vector
// multiply/add pairs (VMULPS/VADDPS, FMUL/FADD) even when FMA hardware is
// present; FMA's single rounding would diverge from the reference by an ulp.
// Tier selection therefore never changes results, only speed.

// gemmTileFunc accumulates a tileM×tileN output tile:
//
//	c[i*ldc+j] += Σ_{k<kn} a[i*ras + k*kas] * b[k*ldb + j]
//
// for i < tileM, j < tileN, walking k in ascending order. The generalized a
// strides (ras between tile rows, kas along k) let one microkernel serve both
// A·B (ras=lda, kas=1) and Aᵀ·B (ras=1, kas=lda) without materializing a
// transpose. Implementations may read only the slice bases; the caller
// guarantees every indexed element is in range and kn >= 0.
type gemmTileFunc func(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int)

// kernel bundles one tier's primitives. saxpy and saxpyI8 process exactly
// len(x) (resp. len(q)) elements; callers guarantee len(y) is at least that.
type kernel struct {
	name         string
	saxpy        func(alpha float32, x, y []float32)
	saxpyI8      func(alpha float32, q []int8, y []float32)
	expSum       func(x []float32, m float32) float32
	gemmTile     gemmTileFunc
	tileM, tileN int
}

var genericKernel = kernel{
	name:     "generic",
	saxpy:    saxpyGeneric,
	saxpyI8:  saxpyI8Generic,
	expSum:   expSumGeneric,
	gemmTile: gemmTileGeneric,
	tileM:    4,
	tileN:    4,
}

// Dispatch state. Written only by setKernel (init, SetKernelTier); the
// impl pointers are copied out so hot paths pay one indirect call, not a
// struct load. Switching tiers is not synchronized with concurrent kernel
// use — it is an init/test/bench-time operation.
var (
	kernelTiers          []kernel // best tier first; "generic" always last
	activeKernel         kernel
	saxpyImpl            func(alpha float32, x, y []float32)
	saxpyI8Impl          func(alpha float32, q []int8, y []float32)
	expSumImpl           func(x []float32, m float32) float32
	gemmTileImpl         gemmTileFunc
	gemmTileM, gemmTileN int
)

func init() {
	kernelTiers = append(archKernels(), genericKernel)
	sel := kernelTiers[0]
	if want := os.Getenv("DUET_KERNEL"); want != "" {
		// An unknown name is ignored rather than fatal: init cannot return
		// an error and the best detected tier is always correct. Use
		// SetKernelTier to get an explicit error for a bad name.
		for _, k := range kernelTiers {
			if k.name == want {
				sel = k
				break
			}
		}
	}
	setKernel(sel)
}

func setKernel(k kernel) {
	activeKernel = k
	saxpyImpl = k.saxpy
	saxpyI8Impl = k.saxpyI8
	expSumImpl = k.expSum
	gemmTileImpl = k.gemmTile
	gemmTileM = k.tileM
	gemmTileN = k.tileN
}

// KernelTier reports the name of the tier currently dispatching the SIMD
// kernels: "avx2", "sse", "neon" or "generic".
func KernelTier() string { return activeKernel.name }

// KernelTiers lists the tiers available on this CPU, best first. The last
// entry is always "generic".
func KernelTiers() []string {
	names := make([]string, len(kernelTiers))
	for i, k := range kernelTiers {
		names[i] = k.name
	}
	return names
}

// SetKernelTier switches kernel dispatch to the named tier. It is intended
// for tests and benchmarks (and the DUET_KERNEL startup override); it must
// not race with in-flight kernel calls. Unknown or unavailable names return
// an error and leave the active tier unchanged.
func SetKernelTier(name string) error {
	for _, k := range kernelTiers {
		if k.name == name {
			setKernel(k)
			return nil
		}
	}
	return fmt.Errorf("tensor: unknown kernel tier %q (available: %v)", name, KernelTiers())
}

// Saxpy computes y[i] += alpha*x[i] for i < len(x); len(y) must be at least
// len(x). It is the inner kernel of the packed inference plan. The operation
// is elementwise — no horizontal reduction — and every tier rounds the
// multiply and the add separately, so results are identical across tiers.
func Saxpy(alpha float32, x, y []float32) {
	// The reslice enforces len(y) >= len(x) with a panic; the asm tiers
	// loop off len(x) alone and would otherwise write past a short y.
	y = y[:len(x)]
	saxpyImpl(alpha, x, y)
}

// SaxpyI8 computes y[i] += alpha*float32(q[i]) for i < len(q); len(y) must
// be at least len(q). It is the fused dequantize-accumulate kernel of the
// int8 packed plan: alpha carries the caller's activation×scale product and
// the int8→float32 widening is exact, so like Saxpy the result is bitwise
// identical across tiers.
func SaxpyI8(alpha float32, q []int8, y []float32) {
	y = y[:len(q)]
	saxpyI8Impl(alpha, q, y)
}

// Generic reference tier. The explicit float32(...) conversions force the
// intermediate product to round to float32 (a Go-spec guarantee), keeping
// the reference two-rounding on compilers that would otherwise fuse a*x+y
// into a single-rounding FMA (the arm64 backend does).

func saxpyGeneric(alpha float32, x, y []float32) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += float32(alpha * v)
	}
}

func saxpyI8Generic(alpha float32, q []int8, y []float32) {
	y = y[:len(q)]
	for i, v := range q {
		y[i] += float32(alpha * float32(v))
	}
}

// gemmTileGeneric accumulates a 4x4 tile with k outermost, matching the asm
// microkernels' per-element k-ascending accumulation order.
func gemmTileGeneric(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int) {
	for k := 0; k < kn; k++ {
		bRow := b[k*ldb:]
		for i := 0; i < 4; i++ {
			av := a[i*ras+k*kas]
			cRow := c[i*ldc:]
			for j := 0; j < 4; j++ {
				cRow[j] += float32(av * bRow[j])
			}
		}
	}
}
