package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkKernels is the kernel ledger: every kernel path this build and
// host can run, on the shapes the served models give it, with GFLOP/s.
// Run it with `make bench-kernels`.
//
// A product m×k×n is dst (m×n) += a (m×k) · b (k×n). Its path lines drive
// one axpy4 kernel over the product's 4-row blocks of b, a row of dst at a
// time ("avx2x2", "avx512x2": the two-row kernels, two rows at a time), and
// count only those blocks' FLOPs; "served" is VecMatAcc or GemmAcc on the
// whole product, scalar tail rows included. The shapes, at the served geometry (32×32
// frames; a BiLSTM of 64 units over 20 steps of 13 inputs):
//   - lstm.wh: the recurrent product of one step, the same in both layers;
//   - lstm0.wx, lstm1.wx: each layer's input projection of a window;
//   - stem, mix1.3x3: the frame CNN's first convolution and its largest
//     inception convolution, as weights × patch matrix.
//
// The pools run MaxPool's sweeps on each max path, counting one operation
// per window element, and relu rectifies pool1's output.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	randn := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	products := []struct {
		name    string
		m, k, n int
	}{
		{"lstm.wh", 1, 64, 256},
		{"lstm0.wx", 20, 13, 256},
		{"lstm1.wx", 20, 128, 256},
		{"stem", 12, 9, 32 * 32},
		{"mix1.3x3", 16, 72, 16 * 16},
	}
	for _, s := range products {
		m, k, n := s.m, s.k, s.n
		a, bm, dst := randn(m*k), randn(k*n), make([]float64, m*n)
		blocks := k / 4 * 4
		for _, p := range axpy4Paths(b) {
			b.Run(s.name+"/"+p.name, func(b *testing.B) {
				for b.Loop() {
					for i := 0; i < m; i++ {
						d, ai := dst[i*n:(i+1)*n], a[i*k:(i+1)*k]
						for r := 0; r < blocks; r += 4 {
							p.fn(d, bm[r*n:], bm[(r+1)*n:], bm[(r+2)*n:], bm[(r+3)*n:], ai[r], ai[r+1], ai[r+2], ai[r+3])
						}
					}
				}
				reportGFLOPs(b, 2*float64(m*blocks*n))
			})
		}
		if m >= 2 {
			for _, p := range axpy4x2Paths(b) {
				if p.name == "dispatch" {
					continue
				}
				b.Run(s.name+"/"+p.name+"x2", func(b *testing.B) {
					for b.Loop() {
						for i := 0; i+2 <= m; i += 2 {
							d0, d1 := dst[i*n:(i+1)*n], dst[(i+1)*n:(i+2)*n]
							a0, a1 := a[i*k:(i+1)*k], a[(i+1)*k:(i+2)*k]
							for r := 0; r < blocks; r += 4 {
								p.fn(d0, d1, bm[r*n:], bm[(r+1)*n:], bm[(r+2)*n:], bm[(r+3)*n:],
									a0[r], a0[r+1], a0[r+2], a0[r+3], a1[r], a1[r+1], a1[r+2], a1[r+3])
							}
						}
					}
					reportGFLOPs(b, 2*float64(m/2*2*blocks*n))
				})
			}
		}
		b.Run(s.name+"/served", func(b *testing.B) {
			for b.Loop() {
				if m == 1 {
					VecMatAcc(dst, a, bm)
				} else {
					GemmAcc(dst, a, bm, m, k, n)
				}
			}
			reportGFLOPs(b, 2*float64(m*k*n))
		})
	}

	pools := []struct {
		name string
		g    ConvGeom
	}{
		{"pool1", ConvGeom{InC: 12, InH: 32, InW: 32, KH: 2, KW: 2, StrideH: 2, StrideW: 2}},
		{"mix1.pool", ConvGeom{InC: 12, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{"pool2", ConvGeom{InC: 32, InH: 16, InW: 16, KH: 2, KW: 2, StrideH: 2, StrideW: 2}},
		{"mix2.pool", ConvGeom{InC: 32, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	}
	for _, s := range pools {
		g := s.g
		x, out := randn(g.InC*g.InH*g.InW), make([]float64, g.InC*g.OutH()*g.OutW())
		for _, p := range maxPaths() {
			b.Run(s.name+"/"+p.name, func(b *testing.B) {
				for b.Loop() {
					g.maxPool(x, out, nil, p.fn)
				}
				reportGFLOPs(b, float64(g.KH*g.KW*len(out)))
			})
		}
	}

	x := randn(12 * 16 * 16)
	out := make([]float64, len(x))
	for _, p := range reluPaths() {
		b.Run("relu/"+p.name, func(b *testing.B) {
			for b.Loop() {
				p.fn(out, x)
			}
			reportGFLOPs(b, float64(len(x)))
		})
	}
}

// reportGFLOPs reports the operations per call and the achieved rate.
func reportGFLOPs(b *testing.B, flops float64) {
	b.ReportMetric(flops, "FLOPs")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(flops*float64(b.N)/s/1e9, "GFLOP/s")
	}
}
