package tensor

// The Go kernels: the race detector's and every non-amd64 build's kernels,
// and the oracles the assembly ones in kernel_amd64.s must equal bit for
// bit (kernel_test.go). Each vector kernel computes the same expression per
// element as its Go loop, with the same rounding and the same operand
// order, so the lane count changes the speed and not the bits.

// axpy4Go computes dst[j] = dst[j] + a0·m0[j] + a1·m1[j] + a2·m2[j] + a3·m3[j]
// for every j, adding left to right. Each m row holds at least len(dst)
// values.
func axpy4Go(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64) {
	m0, m1, m2, m3 = m0[:len(dst)], m1[:len(dst)], m2[:len(dst)], m3[:len(dst)]
	for j, d := range dst {
		dst[j] = d + a0*m0[j] + a1*m1[j] + a2*m2[j] + a3*m3[j]
	}
}

// maxIntoGo sets best[i] = x[i·stride] > best[i] ? x[i·stride] : best[i]
// for every i: a NaN never replaces best[i], and of two equal values, ±0
// included, best[i] stays. x holds at least (len(best)−1)·stride + 1
// values.
func maxIntoGo(best, x []float64, stride int) {
	for i, b := range best {
		if v := x[i*stride]; v > b {
			best[i] = v
		}
	}
}

// reluGo sets dst[i] = x[i] > 0 ? x[i] : +0 for every i of x. dst may alias
// x.
func reluGo(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUInto sets dst[i] = x[i] > 0 ? x[i] : +0 for every i of x, so NaN and
// −0 become +0. dst holds at least len(x) values and may alias x.
func ReLUInto(dst, x []float64) {
	relu(dst[:len(x)], x)
}
