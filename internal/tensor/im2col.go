package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling operation
// over NCHW tensors.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate reports whether the geometry produces a non-empty output.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	}
	if g.KH <= 0 || g.KW <= 0 || g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive kernel/stride %+v", g)
	}
	if g.PadH < 0 || g.PadW < 0 {
		return fmt.Errorf("tensor: conv geometry has negative padding %+v", g)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv geometry yields empty output %+v", g)
	}
	return nil
}

// Im2Col expands one image (C×H×W, flattened in img) into a patch matrix of
// shape (C*KH*KW) × (OutH*OutW) written into cols. Each column holds one
// receptive field. cols must have length (C*KH*KW)*(OutH*OutW).
//
// Each (channel, kernel tap, output row) segment is one run of the output
// width: the part that falls on the image is copied (a plain copy at unit
// stride), and the padding on either side is zeroed, instead of testing
// every element against the image bounds.
func (g ConvGeom) Im2Col(img, cols []float64) {
	outH, outW := g.OutH(), g.OutW()
	colW := outH * outW
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				rowOff := ((c*g.KH+kh)*g.KW + kw) * colW
				// Output columns lo..hi-1 read image columns
				// ow*StrideW + kw - PadW inside [0, InW).
				lo, hi := 0, outW
				if kw < g.PadW {
					lo = min(outW, (g.PadW-kw+g.StrideW-1)/g.StrideW)
				}
				if last := g.InW - 1 + g.PadW - kw; last < 0 {
					hi = 0
				} else {
					hi = min(outW, last/g.StrideW+1)
				}
				hi = max(lo, hi)
				for oh := 0; oh < outH; oh++ {
					dst := cols[rowOff+oh*outW : rowOff+(oh+1)*outW]
					ih := oh*g.StrideH + kh - g.PadH
					if ih < 0 || ih >= g.InH {
						clear(dst)
						continue
					}
					clear(dst[:lo])
					clear(dst[hi:])
					src := img[chanOff+ih*g.InW : chanOff+(ih+1)*g.InW]
					if g.StrideW == 1 {
						copy(dst[lo:hi], src[lo+kw-g.PadW:])
						continue
					}
					for ow := lo; ow < hi; ow++ {
						dst[ow] = src[ow*g.StrideW+kw-g.PadW]
					}
				}
			}
		}
	}
}

// Col2Im scatters a patch matrix (the layout produced by Im2Col) back into an
// image gradient, accumulating where patches overlap. img must be zeroed by
// the caller if accumulation from a clean slate is desired.
func (g ConvGeom) Col2Im(cols, img []float64) {
	outH, outW := g.OutH(), g.OutW()
	colW := outH * outW
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				rowOff := ((c*g.KH+kh)*g.KW + kw) * colW
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH + kh - g.PadH
					if ih < 0 || ih >= g.InH {
						continue
					}
					base := rowOff + oh*outW
					imRow := chanOff + ih*g.InW
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW + kw - g.PadW
						if iw < 0 || iw >= g.InW {
							continue
						}
						img[imRow+iw] += cols[base+ow]
					}
				}
			}
		}
	}
}
