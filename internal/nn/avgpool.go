package nn

import (
	"fmt"

	"darnet/internal/tensor"
)

// AvgPool2D is a channel-wise 2-D average pooling layer over flattened C×H×W
// rows. Padding positions contribute zeros and are included in the divisor
// (count_include_pad semantics), keeping the backward pass uniform.
type AvgPool2D struct {
	name string
	geom tensor.ConvGeom // InC = channels; KH/KW/Stride = pool window

	inDim int
}

var _ Layer = (*AvgPool2D)(nil)

// NewAvgPool2D returns an average-pooling layer. It panics on invalid
// geometry (a construction-time programming error).
func NewAvgPool2D(name string, geom tensor.ConvGeom) *AvgPool2D {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: %s: %v", name, err))
	}
	return &AvgPool2D{name: name, geom: geom, inDim: geom.InC * geom.InH * geom.InW}
}

// Name implements Layer.
func (a *AvgPool2D) Name() string { return a.name }

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }

// OutFeatures implements Layer.
func (a *AvgPool2D) OutFeatures(in int) (int, error) {
	if in != a.inDim {
		return 0, errBadWidth(a.name, a.inDim, in)
	}
	return a.geom.InC * a.geom.OutH() * a.geom.OutW(), nil
}

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	g := a.geom
	if x.Dims() != 2 || x.Dim(1) != a.inDim {
		return nil, errBadWidth(a.name, a.inDim, x.Dim(x.Dims()-1))
	}
	n := x.Dim(0)
	out := tensor.New(n, g.InC*g.OutH()*g.OutW())
	for s := 0; s < n; s++ {
		a.pool(x.Row(s), out.Row(s))
	}
	return out, nil
}

// pool average-pools one sample; Forward and Infer share it.
func (a *AvgPool2D) pool(xrow, orow []float64) {
	g := a.geom
	outH, outW := g.OutH(), g.OutW()
	spatial := outH * outW
	inv := 1.0 / float64(g.KH*g.KW)
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				sum := 0.0
				for kh := 0; kh < g.KH; kh++ {
					ih := oh*g.StrideH + kh - g.PadH
					if ih < 0 || ih >= g.InH {
						continue
					}
					for kw := 0; kw < g.KW; kw++ {
						iw := ow*g.StrideW + kw - g.PadW
						if iw < 0 || iw >= g.InW {
							continue
						}
						sum += xrow[chanOff+ih*g.InW+iw]
					}
				}
				orow[c*spatial+oh*outW+ow] = sum * inv
			}
		}
	}
}

// Backward implements Layer: each input position receives the mean of the
// gradients of the windows covering it, scaled by 1/(KH*KW).
func (a *AvgPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	g := a.geom
	n := grad.Dim(0)
	outH, outW := g.OutH(), g.OutW()
	spatial := outH * outW
	if grad.Dim(1) != g.InC*spatial {
		return nil, errBadWidth(a.name+" backward", g.InC*spatial, grad.Dim(1))
	}
	inv := 1.0 / float64(g.KH*g.KW)
	dx := tensor.New(n, a.inDim)
	for s := 0; s < n; s++ {
		grow, drow := grad.Row(s), dx.Row(s)
		for c := 0; c < g.InC; c++ {
			chanOff := c * g.InH * g.InW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					gv := grow[c*spatial+oh*outW+ow] * inv
					for kh := 0; kh < g.KH; kh++ {
						ih := oh*g.StrideH + kh - g.PadH
						if ih < 0 || ih >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							iw := ow*g.StrideW + kw - g.PadW
							if iw < 0 || iw >= g.InW {
								continue
							}
							drow[chanOff+ih*g.InW+iw] += gv
						}
					}
				}
			}
		}
	}
	return dx, nil
}
