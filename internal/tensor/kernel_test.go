package tensor

import (
	"math"
	"math/rand"
	"slices"
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
	// (5×13)·(13×3) onto ones: rows 0–1 and 2–3 take the paired path and
	// row 4 the trailing single-row one. Among the 4-coefficient blocks of
	// the pairs, one has only the second row zero, one only the first, two
	// neither and one both.
	a := []float64{
		1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 9,
		0, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 3,
		1, -1, 2, -2, 0, 0, 0, 0, 1, 1, 1, 1, 4,
		2, 0, 1, 0, 3, 0, 0, 1, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5,
	}
	b := []float64{1, 0, 2, 0, 1, 3, 2, 2, 0, 1, 0, 1, 0, 3, 1, 2, 1, 0, 1, 1, 1, 0, 2, 2, 1, 2, 3, 3, 2, 1, 0, 0, 1, 1, 0, 0, 3, 0, 1}
	dst := make([]float64, 5*3)
	for i := range dst {
		dst[i] = 1
	}
	GemmAcc(dst, a, b, 5, 13, 3)
	want := []float64{58, 53, 50, 12, 6, 7, 21, 8, 7, 5, 14, 10, 16, 1, 6}
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

// TestGemmAccPairsSkipLikeVecMatAcc checks the two-row pass against
// VecMatAcc row by row where the zero-block skip shows: b laced with NaN
// and ±Inf, and a with whole 4-coefficient blocks zero in one row of a pair,
// in both or in neither. A pair that multiplied a zero block instead of
// skipping it would turn that row's sums into NaN.
func TestGemmAccPairsSkipLikeVecMatAcc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		rows, k, n := 1+rng.Intn(6), 1+rng.Intn(14), rng.Intn(maxLen+1)
		a := specialRow(rng, rows*k, hwNaN)
		for i := 0; i < rows; i++ {
			for r := 0; r+4 <= k; r += 4 {
				if rng.Intn(2) == 0 {
					clear(a[i*k+r : i*k+r+4])
				}
			}
		}
		b := specialRow(rng, k*n, hwNaN)
		init := specialRow(rng, rows*n, hwNaN)
		want := slices.Clone(init)
		for i := 0; i < rows; i++ {
			VecMatAcc(want[i*n:(i+1)*n], a[i*k:(i+1)*k], b)
		}
		got := slices.Clone(init)
		GemmAcc(got, a, b, rows, k, n)
		if j := sameBits(got, want); j >= 0 {
			t.Fatalf("trial %d (%d×%d×%d): dst[%d] = %v, VecMatAcc %v", trial, rows, k, n, j, got[j], want[j])
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

// One kernel path each: the tests run every path the build and the host
// can execute (kernel_paths_*_test.go), not only the one dispatch picks.
type (
	axpy4Path struct {
		name string
		fn   func(dst, m0, m1, m2, m3 []float64, a0, a1, a2, a3 float64)
	}
	axpy4x2Path struct {
		name string
		fn   func(d0, d1, m0, m1, m2, m3 []float64, a0, a1, a2, a3, b0, b1, b2, b3 float64)
	}
	maxPath struct {
		name string
		fn   func(best, x []float64, stride int)
	}
	reluPath struct {
		name string
		fn   func(dst, x []float64)
	}
)

// zero is a variable so that hwNaN is computed by the processor at run
// time, not folded by the compiler.
var zero float64

// hwNaN is the NaN the processor's own arithmetic produces (∞·0). An
// operation on two NaNs returns one of them, which one depending on the
// operand order, so the multiply-accumulate tests draw every NaN input from
// this one payload: then every NaN in flight has the same bits, and the
// comparison can demand identical bits.
var hwNaN = math.Inf(1) * zero

// maxLen is the longest slice the kernel tests try: three above twice the
// widest unroll (AVX-512's sixteen elements), so every loop and every tail
// runs.
const maxLen = 2*16 + 3

// specialRow returns n values, about a third of them NaN, ±Inf or ±0 and
// the rest small integers (ties) or normal draws.
func specialRow(rng *rand.Rand, n int, nan float64) []float64 {
	specials := []float64{nan, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	row := make([]float64, n)
	for i := range row {
		switch rng.Intn(6) {
		case 0, 1:
			row[i] = specials[rng.Intn(len(specials))]
		case 2:
			row[i] = float64(rng.Intn(5) - 2)
		default:
			row[i] = rng.NormFloat64()
		}
	}
	return row
}

// sameBits reports the first index where got and want differ in any bit,
// or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestAxpy4PathsMatchOracle holds every axpy4 path to the one-element loop
// bit for bit: every length up to maxLen, aligned and unaligned starts, and
// NaN, ±Inf and ±0 among both the coefficients and the matrix rows.
func TestAxpy4PathsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range axpy4Paths(t) {
		for n := 0; n <= maxLen; n++ {
			for trial := 0; trial < 30; trial++ {
				off := trial % 2
				dst := specialRow(rng, n+off, hwNaN)[off:]
				var m [4][]float64
				for r := range m {
					m[r] = specialRow(rng, n+off, hwNaN)[off:]
				}
				a := specialRow(rng, 4, hwNaN)
				want := slices.Clone(dst)
				for j := range want {
					want[j] = want[j] + a[0]*m[0][j] + a[1]*m[1][j] + a[2]*m[2][j] + a[3]*m[3][j]
				}
				p.fn(dst, m[0], m[1], m[2], m[3], a[0], a[1], a[2], a[3])
				if j := sameBits(dst, want); j >= 0 {
					t.Fatalf("%s n=%d trial %d: dst[%d] = %v, oracle %v (a = %v)", p.name, n, trial, j, dst[j], want[j], a)
				}
			}
		}
	}
}

// TestAxpy4x2PathsMatchOracle does the same for the two-row kernels: each
// row must get exactly what its own one-element loop gives.
func TestAxpy4x2PathsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, p := range axpy4x2Paths(t) {
		for n := 0; n <= maxLen; n++ {
			for trial := 0; trial < 30; trial++ {
				off := trial % 2
				d := [2][]float64{specialRow(rng, n+off, hwNaN)[off:], specialRow(rng, n+off, hwNaN)[off:]}
				var m [4][]float64
				for r := range m {
					m[r] = specialRow(rng, n+off, hwNaN)[off:]
				}
				a := [2][]float64{specialRow(rng, 4, hwNaN), specialRow(rng, 4, hwNaN)}
				var want [2][]float64
				for i := range want {
					want[i] = slices.Clone(d[i])
					for j := range want[i] {
						want[i][j] = want[i][j] + a[i][0]*m[0][j] + a[i][1]*m[1][j] + a[i][2]*m[2][j] + a[i][3]*m[3][j]
					}
				}
				p.fn(d[0], d[1], m[0], m[1], m[2], m[3], a[0][0], a[0][1], a[0][2], a[0][3], a[1][0], a[1][1], a[1][2], a[1][3])
				for i := range want {
					if j := sameBits(d[i], want[i]); j >= 0 {
						t.Fatalf("%s n=%d trial %d: row %d [%d] = %v, oracle %v", p.name, n, trial, i, j, d[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestMaxPathsMatchOracle holds every max-sweep path to the scalar
// `if v > best` loop bit for bit at strides 1, 2 and 3, for x exactly as
// long as the sweep reads and longer, with NaN of both signs, ±Inf and ±0
// in both best and x.
func TestMaxPathsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range maxPaths() {
		for stride := 1; stride <= 3; stride++ {
			for n := 0; n <= maxLen; n++ {
				for trial := 0; trial < 30; trial++ {
					nan := math.NaN()
					if trial%3 == 0 {
						nan = hwNaN
					}
					off, extra := trial%2, trial%4/2
					best := specialRow(rng, n+off, nan)[off:]
					x := specialRow(rng, max(n-1, 0)*stride+1+extra+off, nan)[off:]
					want := slices.Clone(best)
					for i := range want {
						if v := x[i*stride]; v > want[i] {
							want[i] = v
						}
					}
					p.fn(best, x, stride)
					if j := sameBits(best, want); j >= 0 {
						t.Fatalf("%s stride %d n=%d trial %d: best[%d] = %v, oracle %v", p.name, stride, n, trial, j, best[j], want[j])
					}
				}
			}
		}
	}
}

// TestReLUPathsMatchOracle holds every ReLU path to `v > 0 ? v : +0` bit
// for bit, into a separate slice and in place.
func TestReLUPathsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, p := range reluPaths() {
		for n := 0; n <= maxLen; n++ {
			for trial := 0; trial < 30; trial++ {
				nan := math.Copysign(math.NaN(), float64(trial%2*2-1))
				off := trial % 2
				x := specialRow(rng, n+off, nan)[off:]
				want := make([]float64, n)
				for i, v := range x {
					if v > 0 {
						want[i] = v
					}
				}
				dst := specialRow(rng, n+1, nan)[:n]
				if trial%3 == 0 {
					dst = x
				}
				p.fn(dst, x)
				if j := sameBits(dst, want); j >= 0 {
					t.Fatalf("%s n=%d trial %d: relu[%d] = %v, oracle %v", p.name, n, trial, j, dst[j], want[j])
				}
			}
		}
	}
}
