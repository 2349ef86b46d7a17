// Package rnn implements recurrent networks for IMU time-series
// classification: an LSTM cell with full backpropagation through time,
// bidirectional layers, deep stacks, and a softmax sequence classifier —
// the paper's "2 bidirectional LSTM cells containing 64 hidden units"
// IMU-sequence architecture.
package rnn

import (
	"fmt"
	"math"
	"math/rand"

	"darnet/internal/nn"
	"darnet/internal/tensor"
)

// LSTMCell holds the parameters of one LSTM direction: input projection Wx
// (in, 4H), recurrent projection Wh (H, 4H) and bias b (4H). Gate order in
// the packed 4H axis is input, forget, cell (candidate), output.
type LSTMCell struct {
	name   string
	in     int
	hidden int

	wx *nn.Param
	wh *nn.Param
	b  *nn.Param
}

// NewLSTMCell returns an LSTM cell with Xavier-initialized projections and a
// forget-gate bias of 1 (the standard trick that eases gradient flow early in
// training).
func NewLSTMCell(name string, rng *rand.Rand, in, hidden int) *LSTMCell {
	c := &LSTMCell{
		name:   name,
		in:     in,
		hidden: hidden,
		wx:     nn.NewParam(name+".wx", nn.XavierInit(rng, in, hidden, in, 4*hidden)),
		wh:     nn.NewParam(name+".wh", nn.XavierInit(rng, hidden, hidden, hidden, 4*hidden)),
		b:      nn.NewParam(name+".b", tensor.New(4*hidden)),
	}
	for j := hidden; j < 2*hidden; j++ {
		c.b.Value.Data()[j] = 1 // forget gate bias
	}
	return c
}

// Name returns the cell's name.
func (c *LSTMCell) Name() string { return c.name }

// In returns the input feature width.
func (c *LSTMCell) In() int { return c.in }

// Hidden returns the hidden-state width.
func (c *LSTMCell) Hidden() int { return c.hidden }

// Params returns the cell's trainable parameters.
func (c *LSTMCell) Params() []*nn.Param { return []*nn.Param{c.wx, c.wh, c.b} }

// cellCache stores per-step activations needed by BPTT.
type cellCache struct {
	x     *tensor.Tensor // (T, in) input sequence
	steps int
	// Per step t (length T each, width hidden):
	i, f, g, o [][]float64
	cPrev      [][]float64 // c_{t-1}
	c          [][]float64 // c_t
	hPrev      [][]float64 // h_{t-1}
	tanhC      [][]float64
}

// Forward runs the cell over a (T, in) sequence with zero initial state and
// returns the (T, hidden) hidden-state sequence plus the cache required by
// Backward.
func (c *LSTMCell) Forward(x *tensor.Tensor) (*tensor.Tensor, *cellCache, error) {
	if x.Dims() != 2 || x.Dim(1) != c.in {
		return nil, nil, fmt.Errorf("rnn: %s expects (T, %d) input, got %v", c.name, c.in, x.Shape())
	}
	T := x.Dim(0)
	H := c.hidden
	out := tensor.New(T, H)
	cache := &cellCache{
		x: x, steps: T,
		i: make([][]float64, T), f: make([][]float64, T),
		g: make([][]float64, T), o: make([][]float64, T),
		cPrev: make([][]float64, T), c: make([][]float64, T),
		hPrev: make([][]float64, T), tanhC: make([][]float64, T),
	}

	h := make([]float64, H)
	cs := make([]float64, H)
	z := make([]float64, 4*H)

	for t := 0; t < T; t++ {
		xt := x.Row(t)
		c.preact(xt, h, z)

		it := make([]float64, H)
		ft := make([]float64, H)
		gt := make([]float64, H)
		ot := make([]float64, H)
		cPrev := append([]float64(nil), cs...)
		hPrev := append([]float64(nil), h...)
		ct := make([]float64, H)
		tc := make([]float64, H)
		hrow := out.Row(t)
		for j := 0; j < H; j++ {
			it[j] = sigmoid(z[j])
			ft[j] = sigmoid(z[H+j])
			gt[j] = math.Tanh(z[2*H+j])
			ot[j] = sigmoid(z[3*H+j])
			ct[j] = ft[j]*cs[j] + it[j]*gt[j]
			tc[j] = math.Tanh(ct[j])
			hrow[j] = ot[j] * tc[j]
		}
		copy(cs, ct)
		copy(h, hrow)
		cache.i[t], cache.f[t], cache.g[t], cache.o[t] = it, ft, gt, ot
		cache.cPrev[t], cache.c[t] = cPrev, ct
		cache.hPrev[t], cache.tanhC[t] = hPrev, tc
	}
	return out, cache, nil
}

// preact computes the packed gate pre-activations z = b + x·Wx + h·Wh for one
// step with the blocked tensor.VecMatAcc kernel. The batch Forward pass, the
// streaming stepInfer and Infer (which runs the x·Wx half for every step
// before the recurrence) all add the same terms in this order, so an
// incrementally advanced stream is bit-for-bit identical to a full-window
// recompute: floating-point addition is not associative, so sharing the
// accumulation order is what makes the equality exact rather than
// approximate.
func (c *LSTMCell) preact(xt, h, z []float64) {
	copy(z, c.b.Value.Data())
	tensor.VecMatAcc(z, xt, c.wx.Value.Data())
	tensor.VecMatAcc(z, h, c.wh.Value.Data())
}

// gates applies the gate nonlinearities to the pre-activations z and
// advances the carried state h and cs (each length hidden) in place. The
// expressions mirror Forward's exactly — see preact for why that matters.
func (c *LSTMCell) gates(z, h, cs []float64) {
	H := c.hidden
	for j := 0; j < H; j++ {
		it := sigmoid(z[j])
		ft := sigmoid(z[H+j])
		gt := math.Tanh(z[2*H+j])
		ot := sigmoid(z[3*H+j])
		ct := ft*cs[j] + it*gt
		cs[j] = ct
		h[j] = ot * math.Tanh(ct)
	}
}

// stepInfer advances one inference step in place: h and cs (each length
// hidden) are the carried state, z is a 4*hidden scratch.
func (c *LSTMCell) stepInfer(xt, h, cs, z []float64) {
	c.preact(xt, h, z)
	c.gates(z, h, cs)
}

// Backward backpropagates dL/dH (shape (T, hidden)) through the cached
// forward pass, accumulating parameter gradients, and returns dL/dX of shape
// (T, in).
func (c *LSTMCell) Backward(cache *cellCache, dh *tensor.Tensor) (*tensor.Tensor, error) {
	T, H := cache.steps, c.hidden
	if dh.Dims() != 2 || dh.Dim(0) != T || dh.Dim(1) != H {
		return nil, fmt.Errorf("rnn: %s backward expects (%d, %d) grad, got %v", c.name, T, H, dh.Shape())
	}
	dx := tensor.New(T, c.in)
	wxd := c.wx.Value.Data()
	whd := c.wh.Value.Data()
	wxg := c.wx.Grad.Data()
	whg := c.wh.Grad.Data()
	bg := c.b.Grad.Data()

	dhNext := make([]float64, H) // gradient flowing into h_t from step t+1
	dcNext := make([]float64, H)
	dz := make([]float64, 4*H)

	for t := T - 1; t >= 0; t-- {
		it, ft, gt, ot := cache.i[t], cache.f[t], cache.g[t], cache.o[t]
		tc := cache.tanhC[t]
		cPrev := cache.cPrev[t]
		hPrev := cache.hPrev[t]
		dhRow := dh.Row(t)

		for j := 0; j < H; j++ {
			dht := dhRow[j] + dhNext[j]
			dot := dht * tc[j]
			dct := dcNext[j] + dht*ot[j]*(1-tc[j]*tc[j])
			dit := dct * gt[j]
			dft := dct * cPrev[j]
			dgt := dct * it[j]
			dcNext[j] = dct * ft[j]

			dz[j] = dit * it[j] * (1 - it[j])
			dz[H+j] = dft * ft[j] * (1 - ft[j])
			dz[2*H+j] = dgt * (1 - gt[j]*gt[j])
			dz[3*H+j] = dot * ot[j] * (1 - ot[j])
		}

		xt := cache.x.Row(t)
		for k, xv := range xt {
			grow := wxg[k*4*H : (k+1)*4*H]
			if xv != 0 {
				for j, d := range dz {
					grow[j] += xv * d
				}
			}
		}
		for k, hv := range hPrev {
			grow := whg[k*4*H : (k+1)*4*H]
			if hv != 0 {
				for j, d := range dz {
					grow[j] += hv * d
				}
			}
		}
		for j, d := range dz {
			bg[j] += d
		}

		dxRow := dx.Row(t)
		for k := range dxRow {
			wrow := wxd[k*4*H : (k+1)*4*H]
			s := 0.0
			for j, d := range dz {
				s += wrow[j] * d
			}
			dxRow[k] = s
		}
		for k := 0; k < H; k++ {
			wrow := whd[k*4*H : (k+1)*4*H]
			s := 0.0
			for j, d := range dz {
				s += wrow[j] * d
			}
			dhNext[k] = s
		}
	}
	return dx, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
