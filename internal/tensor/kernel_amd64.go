//go:build amd64 && !race

package tensor

// axpy4 computes dst[j] = dst[j] + a0·m0[j] + a1·m1[j] + a2·m2[j] + a3·m3[j]
// for every j with SSE2, two elements per instruction. SSE2 is part of the
// amd64 baseline, and packed multiplies and adds round each lane exactly as
// the scalar ones do (no fused multiply-add), so the sums are bit-identical
// to kernel_generic.go's. Each m row holds at least len(dst) values. Race
// builds use the Go kernel instead, so the race detector sees every write.
//
//go:noescape
func axpy4(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64)
