package nn

import (
	"fmt"
	"math/rand"

	"darnet/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW volumes flattened into batch rows.
// The input geometry (channels, height, width, kernel, stride, padding) is
// fixed at construction; the layer consumes rows of width InC*InH*InW and
// produces rows of width OutC*OutH*OutW.
//
// The implementation lowers each sample to a patch matrix with im2col and
// performs the convolution as a single matrix multiplication, the standard
// CPU strategy.
type Conv2D struct {
	name string
	geom tensor.ConvGeom
	outC int
	w    *Param // (outC, inC*KH*KW)
	b    *Param // (outC)

	x    *tensor.Tensor // cached input for Backward
	cols []float64      // scratch patch matrix, reused across samples
}

// NewConv2D returns a convolution layer with He-initialized kernels.
// It panics if the geometry is invalid, which indicates a construction-time
// programming error rather than a runtime condition.
func NewConv2D(name string, rng *rand.Rand, geom tensor.ConvGeom, outC int) *Conv2D {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: %s: %v", name, err))
	}
	if outC <= 0 {
		panic(fmt.Sprintf("nn: %s: non-positive output channels %d", name, outC))
	}
	fanIn := geom.InC * geom.KH * geom.KW
	return &Conv2D{
		name: name,
		geom: geom,
		outC: outC,
		w:    NewParam(name+".w", HeInit(rng, fanIn, outC, fanIn)),
		b:    NewParam(name+".b", tensor.New(outC)),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// OutC returns the number of output channels.
func (c *Conv2D) OutC() int { return c.outC }

// OutFeatures implements Layer.
func (c *Conv2D) OutFeatures(in int) (int, error) {
	want := c.geom.InC * c.geom.InH * c.geom.InW
	if in != want {
		return 0, errBadWidth(c.name, want, in)
	}
	return c.outC * c.geom.OutH() * c.geom.OutW(), nil
}

func (c *Conv2D) patchRows() int { return c.geom.InC * c.geom.KH * c.geom.KW }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	inW := c.geom.InC * c.geom.InH * c.geom.InW
	if x.Dims() != 2 || x.Dim(1) != inW {
		return nil, errBadWidth(c.name, inW, x.Dim(x.Dims()-1))
	}
	n := x.Dim(0)
	outH, outW := c.geom.OutH(), c.geom.OutW()
	spatial := outH * outW
	out := tensor.New(n, c.outC*spatial)

	pr := c.patchRows()
	if cap(c.cols) < pr*spatial {
		c.cols = make([]float64, pr*spatial)
	}
	cols := c.cols[:pr*spatial]

	for s := 0; s < n; s++ {
		c.geom.Im2Col(x.Row(s), cols)
		c.convCols(cols, out.Row(s))
	}
	if train {
		c.x = x
	}
	return out, nil
}

// convCols computes one sample's output y[oc, p] = b[oc] + Σ_r w[oc, r] ·
// cols[r, p] from its patch matrix with the blocked tensor.GemmAcc kernel,
// four patch rows per pass over each output channel's row. Forward and
// Infer share it.
func (c *Conv2D) convCols(cols, out []float64) {
	pr := c.patchRows()
	spatial := c.geom.OutH() * c.geom.OutW()
	for oc, bias := range c.b.Value.Data() {
		dst := out[oc*spatial : (oc+1)*spatial]
		for p := range dst {
			dst[p] = bias
		}
	}
	tensor.GemmAcc(out, c.w.Value.Data(), cols, c.outC, pr, spatial)
}

// Backward implements Layer. Per sample, both products run on the blocked
// tensor.GemmAcc kernel over the re-lowered patch matrix:
// dW[oc, r] += Σ_p g[oc, p]·cols[r, p] as g × colsᵀ, summed from zero per
// sample before it is added to the gradient, and dcols = Wᵀ × g, which
// Col2Im folds back into dx. Each sum keeps the order of the scalar loops
// these replaced (p ascending, then oc ascending), so the gradients are
// bit-identical to theirs for finite values (see tensor.VecMatAcc).
// Forming dW as g × colsᵀ rather than cols × gᵀ runs the kernel over rows
// InC·KH·KW long rather than OutC long; MicroInception's 5×5 towers (100
// patch rows, 4 output channels) train about 30% faster that way.
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	spatial := c.geom.OutH() * c.geom.OutW()
	if err := checkBackward(c.name, c.x, c.outC*spatial, grad); err != nil {
		return nil, err
	}
	pr := c.patchRows()
	cols := c.cols[:pr*spatial]
	dcols := make([]float64, pr*spatial)
	colsT := make([]float64, spatial*pr) // one sample's colsᵀ, (spatial, pr)
	dw := make([]float64, c.outC*pr)     // one sample's dW, (outC, pr)
	wT := make([]float64, pr*c.outC)     // Wᵀ, (pr, outC)
	tensor.TransposeInto(wT, c.w.Value.Data(), c.outC, pr)

	dx := tensor.New(c.x.Shape()...)
	wg := c.w.Grad.Data()
	bg := c.b.Grad.Data()

	for s := 0; s < grad.Dim(0); s++ {
		c.geom.Im2Col(c.x.Row(s), cols)
		g := grad.Row(s)
		for oc := range bg {
			gs := 0.0
			for _, v := range g[oc*spatial : (oc+1)*spatial] {
				gs += v
			}
			bg[oc] += gs
		}

		tensor.TransposeInto(colsT, cols, pr, spatial)
		clear(dw)
		tensor.GemmAcc(dw, g, colsT, c.outC, spatial, pr)
		for i, v := range dw {
			wg[i] += v
		}

		clear(dcols)
		tensor.GemmAcc(dcols, wT, g, pr, c.outC, spatial)
		c.geom.Col2Im(dcols, dx.Row(s))
	}
	return dx, nil
}
