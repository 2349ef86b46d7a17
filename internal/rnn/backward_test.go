package rnn

import (
	"math"
	"math/rand"
	"testing"

	"darnet/internal/tensor"
)

// lstmNaive is the forward pass and the per-step BPTT loops LSTMCell ran
// before its backward pass moved onto the blocked kernel, kept as the
// oracle: per-step state copies, weight gradients accumulated one step at a
// time (skipping zero inputs), and dx and dh summed from zero over the gate
// axis. It adds the parameter gradients into wxg, whg and bg and returns
// the hidden states and dx.
func lstmNaive(c *LSTMCell, x, dh *tensor.Tensor, wxg, whg, bg []float64) (h, dx []float64) {
	T, H, G := x.Dim(0), c.hidden, 4*c.hidden
	wxd, whd := c.wx.Value.Data(), c.wh.Value.Data()
	is, fs, gs, os := make([][]float64, T), make([][]float64, T), make([][]float64, T), make([][]float64, T)
	cPrevs, hPrevs, tcs := make([][]float64, T), make([][]float64, T), make([][]float64, T)
	h = make([]float64, T*H)
	hs, cs, z := make([]float64, H), make([]float64, H), make([]float64, G)
	for t := 0; t < T; t++ {
		preactNaive(c, x.Row(t), hs, z)
		is[t], fs[t], gs[t], os[t], tcs[t] = make([]float64, H), make([]float64, H), make([]float64, H), make([]float64, H), make([]float64, H)
		cPrevs[t], hPrevs[t] = append([]float64(nil), cs...), append([]float64(nil), hs...)
		for j := 0; j < H; j++ {
			is[t][j] = sigmoid(z[j])
			fs[t][j] = sigmoid(z[H+j])
			gs[t][j] = math.Tanh(z[2*H+j])
			os[t][j] = sigmoid(z[3*H+j])
			cs[j] = fs[t][j]*cs[j] + is[t][j]*gs[t][j]
			tcs[t][j] = math.Tanh(cs[j])
			hs[j] = os[t][j] * tcs[t][j]
		}
		copy(h[t*H:(t+1)*H], hs)
	}

	dx = make([]float64, T*c.in)
	dhNext, dcNext, dz := make([]float64, H), make([]float64, H), make([]float64, G)
	for t := T - 1; t >= 0; t-- {
		it, ft, gt, ot, tc := is[t], fs[t], gs[t], os[t], tcs[t]
		dhRow := dh.Row(t)
		for j := 0; j < H; j++ {
			dht := dhRow[j] + dhNext[j]
			dot := dht * tc[j]
			dct := dcNext[j] + dht*ot[j]*(1-tc[j]*tc[j])
			dit := dct * gt[j]
			dft := dct * cPrevs[t][j]
			dgt := dct * it[j]
			dcNext[j] = dct * ft[j]
			dz[j] = dit * it[j] * (1 - it[j])
			dz[H+j] = dft * ft[j] * (1 - ft[j])
			dz[2*H+j] = dgt * (1 - gt[j]*gt[j])
			dz[3*H+j] = dot * ot[j] * (1 - ot[j])
		}
		for _, part := range []struct{ v, g []float64 }{{x.Row(t), wxg}, {hPrevs[t], whg}} {
			for k, v := range part.v {
				if v == 0 {
					continue
				}
				for j, d := range dz {
					part.g[k*G+j] += v * d
				}
			}
		}
		for j, d := range dz {
			bg[j] += d
		}
		for _, part := range []struct{ dst, w []float64 }{{dx[t*c.in : (t+1)*c.in], wxd}, {dhNext, whd}} {
			for k := range part.dst {
				s := 0.0
				for j, d := range dz {
					s += part.w[k*G+j] * d
				}
				part.dst[k] = s
			}
		}
	}
	return h, dx
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

// TestLSTMBackwardMatchesOracle holds Forward and Backward to the scalar
// loops bit for bit — hidden states, dx, and the dWx, dWh and db the dh
// recurrence feeds — over sequence lengths (empty included) and widths on
// and off the kernel's four-row block, with exact zeros in inputs, weights
// and grads, and two Backward calls accumulating into the same gradients.
func TestLSTMBackwardMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 150; trial++ {
		in, hidden := 1+rng.Intn(14), 1+rng.Intn(9)
		c := NewLSTMCell("c", rng, in, hidden)
		for _, p := range c.Params() {
			for i := range p.Value.Data() {
				if rng.Intn(6) == 0 {
					p.Value.Data()[i] = 0
				}
			}
		}
		wxg := make([]float64, len(c.wx.Grad.Data()))
		whg := make([]float64, len(c.wh.Grad.Data()))
		bg := make([]float64, len(c.b.Grad.Data()))
		for call := 0; call < 2; call++ {
			T := rng.Intn(12) // an empty sequence too
			x, dh := randWindow(rng, T, in), randWindow(rng, T, hidden)
			wantH, wantDX := lstmNaive(c, x, dh, wxg, whg, bg)
			h, cache, err := c.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "h", h.Data(), wantH)
			dx, err := c.Backward(cache, dh)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "dx", dx.Data(), wantDX)
			sameBits(t, "dWx", c.wx.Grad.Data(), wxg)
			sameBits(t, "dWh", c.wh.Grad.Data(), whg)
			sameBits(t, "db", c.b.Grad.Data(), bg)
		}
	}
}
