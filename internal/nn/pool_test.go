package nn

import (
	"math"
	"math/rand"
	"testing"

	"darnet/internal/tensor"
)

// poolOracle is the direct max pool that MaxPool2D.pool must reproduce: for
// each output, scan its window in row-major order and keep the first element
// greater than everything before it; a window with nothing above −Inf emits 0
// with argmax -1.
func poolOracle(g tensor.ConvGeom, xrow []float64) ([]float64, []int) {
	outH, outW := g.OutH(), g.OutW()
	spatial := outH * outW
	orow, argmax := make([]float64, g.InC*spatial), make([]int, g.InC*spatial)
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				best := math.Inf(-1)
				bestIdx := -1
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
						idx := chanOff + ih*g.InW + iw
						if v := xrow[idx]; v > best {
							best, bestIdx = v, idx
						}
					}
				}
				oi := c*spatial + oh*outW + ow
				if bestIdx >= 0 {
					orow[oi] = best
				}
				argmax[oi] = bestIdx
			}
		}
	}
	return orow, argmax
}

// TestMaxPoolMatchesOracle holds Forward (values and argmax) and Infer
// (values) to poolOracle bit for bit on the served geometries and odd ones —
// strides above one with padding, non-square windows, windows wholly in
// padding — over inputs laced with ±0, ±Inf and NaN, and with whole
// channels of −Inf and NaN.
func TestMaxPoolMatchesOracle(t *testing.T) {
	geoms := []tensor.ConvGeom{
		{InC: 16, InH: 32, InW: 32, KH: 2, KW: 2, StrideH: 2, StrideW: 2},                   // pool1
		{InC: 16, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, // mix1.pool
		{InC: 32, InH: 16, InW: 16, KH: 2, KW: 2, StrideH: 2, StrideW: 2},                   // pool2
		{InC: 32, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},   // mix2.pool
		{InC: 3, InH: 7, InW: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 2, InH: 5, InW: 6, KH: 2, KW: 3, StrideH: 1, StrideW: 2, PadH: 0, PadW: 1},
		{InC: 2, InH: 3, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 3, PadH: 2, PadW: 2},
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	for gi, g := range geoms {
		in := g.InC * g.InH * g.InW
		x := tensor.New(3, in)
		for s := 0; s < 3; s++ {
			row := x.Row(s)
			plane := g.InH * g.InW
			for i := range row {
				switch c := i / plane; {
				case s == 2 && c == 0:
					row[i] = specials[3+rng.Intn(2)] // −Inf and NaN only
				case rng.Intn(4) == 0:
					row[i] = specials[rng.Intn(len(specials))]
				default:
					row[i] = float64(rng.Intn(5)) - 2 // ties
				}
			}
		}
		l := NewMaxPool2D("pool", g)
		out, err := l.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := NewSequential("net", l).NewWorkspace(in)
		if err != nil {
			t.Fatal(err)
		}
		spatial := g.InC * g.OutH() * g.OutW()
		for s := 0; s < 3; s++ {
			want, wantArg := poolOracle(g, x.Row(s))
			inferred, err := ws.net.Infer(ws, x.Row(s))
			if err != nil {
				t.Fatal(err)
			}
			arg := l.argmax[s*spatial : (s+1)*spatial]
			for i := range want {
				wb := math.Float64bits(want[i])
				if math.Float64bits(out.Row(s)[i]) != wb || math.Float64bits(inferred[i]) != wb || arg[i] != wantArg[i] {
					t.Fatalf("geometry %d sample %d output %d: Forward %v (argmax %d), Infer %v, oracle %v (argmax %d)",
						gi, s, i, out.Row(s)[i], arg[i], inferred[i], want[i], wantArg[i])
				}
			}
		}
	}
}
