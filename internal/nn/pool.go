package nn

import (
	"fmt"
	"math"

	"darnet/internal/tensor"
)

// MaxPool2D is a channel-wise 2-D max pooling layer over flattened C×H×W rows.
type MaxPool2D struct {
	name string
	geom tensor.ConvGeom // InC interpreted as the channel count; kernel = pool window

	argmax []int // flat input index chosen per output element, cached for Backward
	inDim  int
}

// NewMaxPool2D returns a max-pooling layer. The geometry's InC is the channel
// count and KH/KW/Stride describe the pooling window. It panics on invalid
// geometry (a construction-time programming error).
func NewMaxPool2D(name string, geom tensor.ConvGeom) *MaxPool2D {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: %s: %v", name, err))
	}
	return &MaxPool2D{name: name, geom: geom}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// OutFeatures implements Layer.
func (m *MaxPool2D) OutFeatures(in int) (int, error) {
	want := m.geom.InC * m.geom.InH * m.geom.InW
	if in != want {
		return 0, errBadWidth(m.name, want, in)
	}
	return m.geom.InC * m.geom.OutH() * m.geom.OutW(), nil
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	g := m.geom
	inW := g.InC * g.InH * g.InW
	if x.Dims() != 2 || x.Dim(1) != inW {
		return nil, errBadWidth(m.name, inW, x.Dim(x.Dims()-1))
	}
	n := x.Dim(0)
	outH, outW := g.OutH(), g.OutW()
	spatial := outH * outW
	out := tensor.New(n, g.InC*spatial)
	if train {
		if cap(m.argmax) < n*g.InC*spatial {
			m.argmax = make([]int, n*g.InC*spatial)
		}
		m.argmax = m.argmax[:n*g.InC*spatial]
		m.inDim = inW
	}

	for s := 0; s < n; s++ {
		var argmax []int
		if train {
			argmax = m.argmax[s*g.InC*spatial : (s+1)*g.InC*spatial]
		}
		m.pool(x.Row(s), out.Row(s), argmax)
	}
	return out, nil
}

// pool max-pools one sample; Forward and Infer share it. Each output takes
// the first element of its window, in row-major order, that is greater than
// every element before it; a window with no element above −Inf (all
// padding, −Inf or NaN) emits 0. When argmax is not nil it receives the flat
// input index each output took, or -1 for such a window.
//
// The window loops run outside the output-column loop: orow holds the
// running maxima, starting at −Inf, and each window position sweeps one
// output row at the pool's stride, with the row's ends clipped once rather
// than every element tested against the input's bounds. Each output still
// sees its window in row-major order.
func (m *MaxPool2D) pool(xrow, orow []float64, argmax []int) {
	g := m.geom
	outH, outW := g.OutH(), g.OutW()
	orow = orow[:g.InC*outH*outW]
	for i := range orow {
		orow[i] = math.Inf(-1)
	}
	for i := range argmax {
		argmax[i] = -1
	}
	for c := 0; c < g.InC; c++ {
		for oh := 0; oh < outH; oh++ {
			first := (c*outH + oh) * outW
			best := orow[first : first+outW]
			for kh := 0; kh < g.KH; kh++ {
				ih := oh*g.StrideH + kh - g.PadH
				if ih < 0 || ih >= g.InH {
					continue
				}
				rowOff := (c*g.InH + ih) * g.InW
				for kw := 0; kw < g.KW; kw++ {
					// Output column ow reads input column ow*StrideW + off;
					// [lo, hi) are the outputs whose column is inside the row.
					off := kw - g.PadW
					lo, hi := 0, outW
					for lo < hi && lo*g.StrideW+off < 0 {
						lo++
					}
					for hi > lo && (hi-1)*g.StrideW+off >= g.InW {
						hi--
					}
					idx := rowOff + lo*g.StrideW + off
					for ow := lo; ow < hi; ow, idx = ow+1, idx+g.StrideW {
						if v := xrow[idx]; v > best[ow] {
							best[ow] = v
							if argmax != nil {
								argmax[first+ow] = idx
							}
						}
					}
				}
			}
		}
	}
	for i, v := range orow {
		if math.IsInf(v, -1) {
			orow[i] = 0
		}
	}
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	g := m.geom
	n := grad.Dim(0)
	spatial := g.OutH() * g.OutW()
	dx := tensor.New(n, m.inDim)
	for s := 0; s < n; s++ {
		grow := grad.Row(s)
		drow := dx.Row(s)
		base := s * g.InC * spatial
		for oi, gv := range grow {
			if idx := m.argmax[base+oi]; idx >= 0 {
				drow[idx] += gv
			}
		}
	}
	return dx, nil
}

// GlobalAvgPool averages each channel's spatial plane down to one value,
// mapping rows of width C*H*W to rows of width C.
type GlobalAvgPool struct {
	name    string
	c, h, w int
}

// NewGlobalAvgPool returns a global average pooling layer over C×H×W volumes.
func NewGlobalAvgPool(name string, c, h, w int) *GlobalAvgPool {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: %s: non-positive dims %dx%dx%d", name, c, h, w))
	}
	return &GlobalAvgPool{name: name, c: c, h: h, w: w}
}

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// OutFeatures implements Layer.
func (g *GlobalAvgPool) OutFeatures(in int) (int, error) {
	if in != g.c*g.h*g.w {
		return 0, errBadWidth(g.name, g.c*g.h*g.w, in)
	}
	return g.c, nil
}

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 2 || x.Dim(1) != g.c*g.h*g.w {
		return nil, errBadWidth(g.name, g.c*g.h*g.w, x.Dim(x.Dims()-1))
	}
	n := x.Dim(0)
	out := tensor.New(n, g.c)
	for s := 0; s < n; s++ {
		g.pool(x.Row(s), out.Row(s))
	}
	return out, nil
}

// pool averages one sample's channel planes; Forward and Infer share it.
func (g *GlobalAvgPool) pool(xrow, orow []float64) {
	plane := g.h * g.w
	for c := 0; c < g.c; c++ {
		sum := 0.0
		for _, v := range xrow[c*plane : (c+1)*plane] {
			sum += v
		}
		orow[c] = sum / float64(plane)
	}
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	n := grad.Dim(0)
	plane := g.h * g.w
	inv := 1.0 / float64(plane)
	dx := tensor.New(n, g.c*plane)
	for s := 0; s < n; s++ {
		grow := grad.Row(s)
		drow := dx.Row(s)
		for c := 0; c < g.c; c++ {
			gv := grow[c] * inv
			dst := drow[c*plane : (c+1)*plane]
			for i := range dst {
				dst[i] = gv
			}
		}
	}
	return dx, nil
}
