package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndSize(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		size  int
	}{
		{"scalar", nil, 1},
		{"vector", []int{5}, 5},
		{"matrix", []int{3, 4}, 12},
		{"nchw", []int{2, 3, 4, 5}, 120},
		{"zero dim", []int{0, 7}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if x.Size() != tt.size {
				t.Fatalf("Size() = %d, want %d", x.Size(), tt.size)
			}
			if x.Dims() != len(tt.shape) {
				t.Fatalf("Dims() = %d, want %d", x.Dims(), len(tt.shape))
			}
		})
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %g, want 7.5", got)
	}
	if got := x.At(0, 0, 0); got != 0 {
		t.Fatalf("untouched element = %g, want 0", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceMismatch(t *testing.T) {
	if _, err := FromSlice([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("expected error for length/shape mismatch")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.MustReshape(3, 2)
	y.Set(99, 0, 1)
	if x.At(0, 1) != 99 {
		t.Fatal("reshape must share storage")
	}
	if _, err := x.Reshape(4, 2); err == nil {
		t.Fatal("expected reshape size mismatch error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := MustFromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float64{10, 20, 30, 40}, 2, 2)

	if got := a.Clone().AddInPlace(b).Data(); got[3] != 44 {
		t.Fatalf("AddInPlace = %v", got)
	}
	if got := b.Clone().SubInPlace(a).Data(); got[0] != 9 {
		t.Fatalf("SubInPlace = %v", got)
	}
	if got := a.Clone().MulInPlace(b).Data(); got[2] != 90 {
		t.Fatalf("MulInPlace = %v", got)
	}
	if got := a.Clone().ScaleInPlace(2).Data(); got[1] != 4 {
		t.Fatalf("ScaleInPlace = %v", got)
	}
	c := a.Clone()
	c.AddScaledInPlace(b, 0.5)
	if c.At(0, 0) != 6 {
		t.Fatalf("axpy = %v", c.Data())
	}
}

func TestReductions(t *testing.T) {
	x := MustFromSlice([]float64{3, -1, 7, 2}, 4)
	if x.Sum() != 11 {
		t.Fatalf("Sum = %g", x.Sum())
	}
	if x.Mean() != 2.75 {
		t.Fatalf("Mean = %g", x.Mean())
	}
	if x.Max() != 7 {
		t.Fatalf("Max = %g", x.Max())
	}
	if x.ArgMax() != 2 {
		t.Fatalf("ArgMax = %d", x.ArgMax())
	}
}

func TestArgMaxRow(t *testing.T) {
	x := MustFromSlice([]float64{
		0.1, 0.9, 0.0,
		0.6, 0.2, 0.2,
	}, 2, 3)
	got := x.ArgMaxRow()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRow = %v", got)
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data()[i], w)
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("expected inner-dimension error")
	}
	if _, err := MatMul(New(2), b); err == nil {
		t.Fatal("expected 2-D requirement error")
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := MustFromSlice([]float64{10, 20}, 2)
	if err := x.AddRowVector(v); err != nil {
		t.Fatal(err)
	}
	if x.At(1, 1) != 24 {
		t.Fatalf("AddRowVector = %v", x.Data())
	}
	s, err := x.SumRows()
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0) != 24 || s.At(1) != 46 {
		t.Fatalf("SumRows = %v", s.Data())
	}

	if err := x.AddRowVector(New(3)); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

// Property: matrix multiplication is associative (A·B)·C == A·(B·C).
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n, p := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, n, p)
		left := MustMatMul(MustMatMul(a, b), c)
		right := MustMatMul(a, MustMatMul(b, c))
		for i := range left.Data() {
			if !almostEqual(left.Data()[i], right.Data()[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transposing twice is the identity.
func TestDoubleTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, 1, m, n)
		at, err := Transpose(a)
		if err != nil {
			return false
		}
		att, err := Transpose(at)
		if err != nil {
			return false
		}
		for i := range a.Data() {
			if a.Data()[i] != att.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeIntoTiles checks every element of TransposeInto's tiled copy
// on shapes that end on and off a tile edge.
func TestTransposeIntoTiles(t *testing.T) {
	for _, m := range []int{1, 7, 8, 9, 17} {
		for _, n := range []int{1, 3, 8, 16, 21} {
			src := make([]float64, m*n)
			for i := range src {
				src[i] = float64(i + 1)
			}
			dst := make([]float64, m*n)
			TransposeInto(dst, src, m, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					if dst[j*m+i] != src[i*n+j] {
						t.Fatalf("%dx%d: dst[%d][%d] = %v, want %v", m, n, j, i, dst[j*m+i], src[i*n+j])
					}
				}
			}
		}
	}
}

// Property: Col2Im(Im2Col(x)) with a 1×1 kernel and stride 1 is the identity.
func TestIm2ColIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, h, w := 1+rng.Intn(3), 1+rng.Intn(6), 1+rng.Intn(6)
		g := ConvGeom{InC: c, InH: h, InW: w, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
		img := Randn(rng, 1, c*h*w).Data()
		cols := make([]float64, c*g.OutH()*g.OutW())
		g.Im2Col(img, cols)
		back := make([]float64, len(img))
		g.Col2Im(cols, back)
		for i := range img {
			if !almostEqual(img[i], back[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 1 channel, 3x3 image, 2x2 kernel, stride 1, no padding -> 4 patches.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	img := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	cols := make([]float64, 4*4)
	g.Im2Col(img, cols)
	// Column 0 is the top-left receptive field {1,2,4,5} spread across rows.
	want0 := []float64{1, 2, 4, 5}
	for r := 0; r < 4; r++ {
		if cols[r*4+0] != want0[r] {
			t.Fatalf("col0 row %d = %g, want %g", r, cols[r*4], want0[r])
		}
	}
	// Column 3 is the bottom-right receptive field {5,6,8,9}.
	want3 := []float64{5, 6, 8, 9}
	for r := 0; r < 4; r++ {
		if cols[r*4+3] != want3[r] {
			t.Fatalf("col3 row %d = %g, want %g", r, cols[r*4+3], want3[r])
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if g.OutH() != 2 || g.OutW() != 2 {
		t.Fatalf("geometry out = %dx%d, want 2x2", g.OutH(), g.OutW())
	}
	img := []float64{1, 2, 3, 4}
	cols := make([]float64, 9*4)
	for i := range cols {
		cols[i] = math.NaN() // ensure padding positions are explicitly written
	}
	g.Im2Col(img, cols)
	for i, v := range cols {
		if math.IsNaN(v) {
			t.Fatalf("cols[%d] untouched", i)
		}
	}
	// First patch, kernel position (0,0) looks above-left of the image: zero.
	if cols[0] != 0 {
		t.Fatalf("padding position = %g, want 0", cols[0])
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 0, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 1, InH: 1, InW: 1, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, g)
		}
	}
}
