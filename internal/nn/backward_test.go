package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"darnet/internal/tensor"
)

// convBackwardNaive is the per-sample loop Conv2D.Backward ran before the
// blocked kernel, kept as the oracle: per output channel, the bias sum, each
// dW[oc, r] summed from zero over the spatial positions, and dcols
// accumulated one weight at a time skipping zero weights. It adds the
// parameter gradients into wg and bg and returns dx.
func convBackwardNaive(c *Conv2D, x, grad *tensor.Tensor, wg, bg []float64) []float64 {
	spatial := c.geom.OutH() * c.geom.OutW()
	pr := c.patchRows()
	cols := make([]float64, pr*spatial)
	dcols := make([]float64, pr*spatial)
	dx := tensor.New(x.Shape()...)
	wd := c.w.Value.Data()
	for s := 0; s < grad.Dim(0); s++ {
		c.geom.Im2Col(x.Row(s), cols)
		grow := grad.Row(s)
		for oc := 0; oc < c.outC; oc++ {
			gslice := grow[oc*spatial : (oc+1)*spatial]
			gs := 0.0
			for _, g := range gslice {
				gs += g
			}
			bg[oc] += gs
			for r := 0; r < pr; r++ {
				acc := 0.0
				for p, g := range gslice {
					acc += g * cols[r*spatial+p]
				}
				wg[oc*pr+r] += acc
			}
			for r, wv := range wd[oc*pr : (oc+1)*pr] {
				if wv == 0 {
					continue
				}
				for p, g := range gslice {
					dcols[r*spatial+p] += wv * g
				}
			}
		}
		c.geom.Col2Im(dcols, dx.Row(s))
		clear(dcols)
	}
	return dx.Data()
}

// matMulTransANaive is the loop tensor.MatMulTransA ran, kept as the oracle
// for Dense's dW: aᵀ × b for a (k, m) and b (k, n), one row of a at a time,
// skipping zero entries of a.
func matMulTransANaive(a, b *tensor.Tensor) []float64 {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := make([]float64, m*n)
	for p := 0; p < k; p++ {
		for i, av := range a.Row(p) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(p) {
				out[i*n+j] += av * bv
			}
		}
	}
	return out
}

// matMulTransBNaive is the loop tensor.MatMulTransB ran, kept as the oracle
// for Dense's dX: a × bᵀ for a (m, k) and b (n, k), each entry a dot
// product summed from zero.
func matMulTransBNaive(a, b *tensor.Tensor) []float64 {
	m, n := a.Dim(0), b.Dim(0)
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p, av := range a.Row(i) {
				s += av * b.Row(j)[p]
			}
			out[i*n+j] = s
		}
	}
	return out
}

// sparseRandn returns an N(0,1) tensor with about one entry in four set to
// exact zero, as ReLU outputs and their gradients are.
func sparseRandn(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.Randn(rng, 1, shape...)
	zeroSome(rng, t.Data())
	return t
}

func zeroSome(rng *rand.Rand, d []float64) {
	for i := range d {
		if rng.Intn(4) == 0 {
			d[i] = 0
		}
	}
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestConvBackwardMatchesOracle holds Conv2D.Backward to the scalar loop
// bit for bit — dx, dW and db — over random geometries (kernels up to 5×5,
// strides 1 and 2, padding, patch-row counts on and off the kernel's
// four-row block) with exact zeros in inputs, weights and grads, and two
// Backward calls accumulating into the same gradients.
func TestConvBackwardMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(5)
		g := tensor.ConvGeom{
			InC: 1 + rng.Intn(4), InH: k + rng.Intn(6), InW: k + rng.Intn(6),
			KH: k, KW: k, StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(k), PadW: rng.Intn(k),
		}
		c := NewConv2D("conv", rng, g, 1+rng.Intn(6))
		zeroSome(rng, c.w.Value.Data())
		wg := make([]float64, len(c.w.Grad.Data()))
		bg := make([]float64, len(c.b.Grad.Data()))
		for call := 0; call < 2; call++ {
			n := 1 + rng.Intn(3)
			x := sparseRandn(rng, n, g.InC*g.InH*g.InW)
			y, err := c.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			grad := sparseRandn(rng, y.Shape()...)
			wantDX := convBackwardNaive(c, x, grad, wg, bg)
			dx, err := c.Backward(grad)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("trial %d call %d %+v: ", trial, call, g)
			sameBits(t, what+"dx", dx.Data(), wantDX)
			sameBits(t, what+"dW", c.w.Grad.Data(), wg)
			sameBits(t, what+"db", c.b.Grad.Data(), bg)
		}
	}
}

// TestDenseBackwardMatchesOracle holds Dense.Backward to the transposed
// matrix-product loops bit for bit, with the same zeros and accumulation as
// the convolution's check.
func TestDenseBackwardMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		in, out := 1+rng.Intn(11), 1+rng.Intn(11)
		d := NewDense("dense", rng, in, out)
		zeroSome(rng, d.w.Value.Data())
		wg := make([]float64, in*out)
		for call := 0; call < 2; call++ {
			x := sparseRandn(rng, 1+rng.Intn(9), in)
			if _, err := d.Forward(x, true); err != nil {
				t.Fatal(err)
			}
			grad := sparseRandn(rng, x.Dim(0), out)
			for i, v := range matMulTransANaive(x, grad) {
				wg[i] += v
			}
			dx, err := d.Backward(grad)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "dx", dx.Data(), matMulTransBNaive(grad, d.w.Value))
			sameBits(t, "dW", d.w.Grad.Data(), wg)
		}
	}
}

// TestBackwardMisuseErrors: Backward before any training-mode Forward, or
// with a grad whose rows disagree with the cached batch, returns an error
// rather than panicking or returning silently wrong values.
func TestBackwardMisuseErrors(t *testing.T) {
	geom := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	layers := []struct {
		name    string
		make    func() Layer
		in, out int
	}{
		{"BatchNorm", func() Layer { return NewBatchNorm("bn", 2, 2) }, 2, 2},
		{"Conv2D", func() Layer { return NewConv2D("conv", rand.New(rand.NewSource(1)), geom, 2) }, 16, 32},
		{"Dense", func() Layer { return NewDense("dense", rand.New(rand.NewSource(1)), 3, 2) }, 3, 2},
	}
	for _, l := range layers {
		t.Run(l.name+"/no_forward", func(t *testing.T) {
			if _, err := l.make().Backward(tensor.New(2, l.out)); err == nil {
				t.Fatal("Backward without Forward: want an error")
			}
		})
		for _, rows := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%d_grad_rows_for_3", l.name, rows), func(t *testing.T) {
				layer := l.make()
				if _, err := layer.Forward(tensor.New(3, l.in), true); err != nil {
					t.Fatal(err)
				}
				if _, err := layer.Backward(tensor.New(rows, l.out)); err == nil {
					t.Fatalf("Backward with %d grad rows after a 3-row Forward: want an error", rows)
				}
			})
		}
	}
}
