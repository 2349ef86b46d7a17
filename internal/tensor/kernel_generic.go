//go:build !amd64 || race

package tensor

// The Go kernels in kernel.go serve builds without the assembly: every
// non-amd64 GOARCH, and amd64 under the race detector, so the detector sees
// every write.

func axpy4(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64) {
	axpy4Go(dst, m0, m1, m2, m3, a0, a1, a2, a3)
}

// axpy4x2 is axpy4 into two rows, d0 with the a coefficients and d1 with
// the b ones, over the same four rows of m.
func axpy4x2(d0, d1, m0, m1, m2, m3 []float64, a0, a1, a2, a3, b0, b1, b2, b3 float64) {
	axpy4Go(d0, m0, m1, m2, m3, a0, a1, a2, a3)
	axpy4Go(d1, m0, m1, m2, m3, b0, b1, b2, b3)
}

func maxInto(best, x []float64, stride int) { maxIntoGo(best, x, stride) }

func relu(dst, x []float64) { reluGo(dst, x) }
