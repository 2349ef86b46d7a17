package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// vecMatAccNaive is the one-product-at-a-time loop VecMatAcc blocks: the
// test oracle for the kernel.
func vecMatAccNaive(dst, a, m []float64) {
	n := len(dst)
	for r, av := range a {
		if av == 0 {
			continue
		}
		for j := range dst {
			dst[j] += av * m[r*n+j]
		}
	}
}

func TestVecMatAccKnownValues(t *testing.T) {
	// dst = [1, 2] + [1 2 3 4 5] · [[1 0] [0 1] [1 1] [2 0] [0 2]]
	dst := []float64{1, 2}
	a := []float64{1, 2, 3, 4, 5}
	m := []float64{1, 0, 0, 1, 1, 1, 2, 0, 0, 2}
	VecMatAcc(dst, a, m)
	want := []float64{1 + 1 + 3 + 8, 2 + 2 + 3 + 10}
	for j, w := range want {
		if dst[j] != w {
			t.Fatalf("VecMatAcc = %v, want %v", dst, want)
		}
	}
}

func TestGemmAccKnownValues(t *testing.T) {
	// (3×2)·(2×3) onto ones: three rows, so both the paired and the
	// trailing single-row path run.
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{1, 0, 2, 0, 1, 3}
	dst := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
	GemmAcc(dst, a, b, 3, 2, 3)
	want := []float64{2, 3, 9, 4, 5, 19, 6, 7, 29}
	for j, w := range want {
		if dst[j] != w {
			t.Fatalf("GemmAcc = %v, want %v", dst, want)
		}
	}
}

// TestKernelsMatchOracle checks VecMatAcc and GemmAcc against the naive loop
// over random shapes, coefficient counts that are and are not multiples of
// four, and coefficient blocks that are entirely zero. The blocking keeps
// every element's addition order, so the results are not just close but
// bit-identical.
func TestKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rows, k, n := 1+rng.Intn(5), 1+rng.Intn(19), 1+rng.Intn(33)
		a := make([]float64, rows*k)
		for i := range a {
			if rng.Intn(3) > 0 {
				a[i] = rng.NormFloat64()
			}
		}
		m := make([]float64, k*n)
		for i := range m {
			m[i] = rng.NormFloat64()
		}
		init := make([]float64, rows*n)
		for i := range init {
			init[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), init...)
		for i := 0; i < rows; i++ {
			vecMatAccNaive(want[i*n:(i+1)*n], a[i*k:(i+1)*k], m)
		}
		gemm := append([]float64(nil), init...)
		GemmAcc(gemm, a, m, rows, k, n)
		vec := append([]float64(nil), init...)
		for i := 0; i < rows; i++ {
			VecMatAcc(vec[i*n:(i+1)*n], a[i*k:(i+1)*k], m)
		}
		for i := range want {
			if math.Float64bits(gemm[i]) != math.Float64bits(want[i]) || math.Float64bits(vec[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (%d×%d×%d) element %d: gemm %v vec %v, oracle %v", trial, rows, k, n, i, gemm[i], vec[i], want[i])
			}
		}
	}
}

// im2colNaive is the per-element Im2Col loop, kept as the oracle for the
// run-based one.
func im2colNaive(g ConvGeom, img, cols []float64) {
	outH, outW := g.OutH(), g.OutW()
	colW := outH * outW
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				rowOff := ((c*g.KH+kh)*g.KW + kw) * colW
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						ih, iw := oh*g.StrideH+kh-g.PadH, ow*g.StrideW+kw-g.PadW
						v := 0.0
						if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
							v = img[(c*g.InH+ih)*g.InW+iw]
						}
						cols[rowOff+oh*outW+ow] = v
					}
				}
			}
		}
	}
}

// TestIm2ColMatchesOracle covers random kernels, strides and paddings —
// including padding as wide as the kernel, where whole runs fall off the
// image — and checks every element, padding zeros included.
func TestIm2ColMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 1 + rng.Intn(7), InW: 1 + rng.Intn(7),
			KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5), StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
		}
		g.PadH, g.PadW = rng.Intn(g.KH+1), rng.Intn(g.KW+1)
		if g.Validate() != nil {
			continue
		}
		img := make([]float64, g.InC*g.InH*g.InW)
		for i := range img {
			img[i] = rng.NormFloat64()
		}
		n := g.InC * g.KH * g.KW * g.OutH() * g.OutW()
		got, want := make([]float64, n), make([]float64, n)
		for i := range got {
			got[i] = math.NaN() // every element must be written
		}
		g.Im2Col(img, got)
		im2colNaive(g, img, want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d %+v: cols[%d] = %v, want %v", trial, g, i, got[i], want[i])
			}
		}
	}
}
