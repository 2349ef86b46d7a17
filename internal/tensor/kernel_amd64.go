//go:build amd64 && !race

package tensor

// The amd64 kernels in kernel_amd64.s. Packed multiplies, adds and maxima
// round and compare each lane exactly as the scalar instructions behind the
// Go kernels do, and no kernel fuses a multiply into an add, so every path
// computes kernel.go's bits. Race builds use the Go kernels instead
// (kernel_generic.go), so the race detector sees every write.
//
// The multiply-accumulate kernels come in three widths. SSE2 is part
// of the amd64 baseline. The AVX2 kernels run when CPUID and XGETBV report
// that the processor has AVX2 and the operating system saves the YMM
// registers, and the AVX-512 ones when they report AVX512F and saved ZMM
// and opmask registers as well; nothing else selects a kernel.

// cpuFeatures is the start-up CPUID and XGETBV probe (kernel_amd64.s).
func cpuFeatures() (avx2, avx512 bool)

var useAVX2, useAVX512 = cpuFeatures()

// axpy4SSE2 computes axpy4Go's sums two elements per instruction.
//
//go:noescape
func axpy4SSE2(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64)

// axpy4AVX2 computes axpy4Go's sums four elements per instruction.
//
//go:noescape
func axpy4AVX2(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64)

// axpy4AVX512 computes axpy4Go's sums eight elements per instruction.
//
//go:noescape
func axpy4AVX512(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64)

// axpy4x2AVX2 is axpy4AVX2 into two rows at once, d0 with the a
// coefficients and d1 with the b ones: each loaded element of m serves both.
//
//go:noescape
func axpy4x2AVX2(d0, d1, m0, m1, m2, m3 []float64, a0, a1, a2, a3, b0, b1, b2, b3 float64)

// axpy4x2AVX512 is axpy4x2AVX2 eight elements per instruction.
//
//go:noescape
func axpy4x2AVX512(d0, d1, m0, m1, m2, m3 []float64, a0, a1, a2, a3, b0, b1, b2, b3 float64)

// maxInto1SSE2 is maxIntoGo at stride 1, two elements per MAXPD.
//
//go:noescape
func maxInto1SSE2(best, x []float64)

// maxInto2SSE2 is maxIntoGo at stride 2: UNPCKLPD gathers the even
// elements of x two at a time.
//
//go:noescape
func maxInto2SSE2(best, x []float64)

// reluSSE2 is reluGo, two elements per MAXPD.
//
//go:noescape
func reluSSE2(dst, x []float64)

func axpy4(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64) {
	if useAVX512 {
		axpy4AVX512(dst, m0, m1, m2, m3, a0, a1, a2, a3)
		return
	}
	if useAVX2 {
		axpy4AVX2(dst, m0, m1, m2, m3, a0, a1, a2, a3)
		return
	}
	axpy4SSE2(dst, m0, m1, m2, m3, a0, a1, a2, a3)
}

// axpy4x2 is axpy4 into two rows, d0 with the a coefficients and d1 with
// the b ones, over the same four rows of m.
func axpy4x2(d0, d1, m0, m1, m2, m3 []float64, a0, a1, a2, a3, b0, b1, b2, b3 float64) {
	if useAVX512 {
		axpy4x2AVX512(d0, d1, m0, m1, m2, m3, a0, a1, a2, a3, b0, b1, b2, b3)
		return
	}
	if useAVX2 {
		axpy4x2AVX2(d0, d1, m0, m1, m2, m3, a0, a1, a2, a3, b0, b1, b2, b3)
		return
	}
	axpy4SSE2(d0, m0, m1, m2, m3, a0, a1, a2, a3)
	axpy4SSE2(d1, m0, m1, m2, m3, b0, b1, b2, b3)
}

func maxInto(best, x []float64, stride int) {
	switch stride {
	case 1:
		maxInto1SSE2(best, x)
	case 2:
		maxInto2SSE2(best, x)
	default:
		maxIntoGo(best, x, stride)
	}
}

func relu(dst, x []float64) { reluSSE2(dst, x) }
