package tensor

import "math"

// MaxPool max-pools one sample: x holds InC planes of InH×InW values and out
// receives InC planes of OutH×OutW, each output the maximum of its KH×KW
// window. Each output takes the first element of its window, in row-major
// order, that is greater than every element before it; a window with no
// element above −Inf (all padding, −Inf or NaN) emits 0. When argmax is not
// nil it receives the flat index into x each output took, or -1 for such a
// window.
//
// The window loops run outside the output-column loop: out holds the
// running maxima, starting at −Inf, and each window position sweeps one
// output row at the stride, with the row's ends clipped once rather than
// every element tested against the input's bounds. Each output still sees
// its window in row-major order. Without argmax a sweep is one maxInto, on
// the MAXPD kernel at strides 1 and 2.
func (g ConvGeom) MaxPool(x, out []float64, argmax []int) {
	g.maxPool(x, out, argmax, maxInto)
}

// maxPool is MaxPool with the sweep kernel as a parameter, so the tests and
// the kernel ledger can run every path.
func (g ConvGeom) maxPool(x, out []float64, argmax []int, sweep func(best, x []float64, stride int)) {
	outH, outW := g.OutH(), g.OutW()
	x, out = x[:g.InC*g.InH*g.InW], out[:g.InC*outH*outW]
	for i := range out {
		out[i] = math.Inf(-1)
	}
	for i := range argmax {
		argmax[i] = -1
	}
	for c := 0; c < g.InC; c++ {
		for oh := 0; oh < outH; oh++ {
			first := (c*outH + oh) * outW
			best := out[first : first+outW]
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
					if argmax == nil {
						if lo < hi {
							sweep(best[lo:hi], x[idx:], g.StrideW)
						}
						continue
					}
					for ow := lo; ow < hi; ow, idx = ow+1, idx+g.StrideW {
						if v := x[idx]; v > best[ow] {
							best[ow] = v
							argmax[first+ow] = idx
						}
					}
				}
			}
		}
	}
	for i, v := range out {
		if math.IsInf(v, -1) {
			out[i] = 0
		}
	}
}
