//go:build !amd64 || race

package tensor

// axpy4 computes dst[j] = dst[j] + a0·m0[j] + a1·m1[j] + a2·m2[j] + a3·m3[j]
// for every j, adding left to right. Each m row holds at least len(dst)
// values. This is the portable kernel; amd64 builds without the race
// detector use the SSE2 one in kernel_amd64.s, which computes the same
// sums bit for bit.
func axpy4(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64) {
	m0, m1, m2, m3 = m0[:len(dst)], m1[:len(dst)], m2[:len(dst)], m3[:len(dst)]
	for j, d := range dst {
		dst[j] = d + a0*m0[j] + a1*m1[j] + a2*m2[j] + a3*m3[j]
	}
}
