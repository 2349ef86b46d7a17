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

	// wxT and whT hold Wxᵀ and Whᵀ for Backward, which refills them on
	// every call because the weights change between calls. Keeping them
	// spares training two weight-sized allocations per sequence.
	wxT, whT []float64
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

// cellCache stores the activations BPTT needs as flat (T, hidden) slabs,
// row t holding step t. The state a step starts from is row t-1 of c and of
// h (zero at t = 0), so it is not stored again; h is the output Forward
// returned, which every caller only reads.
type cellCache struct {
	x     *tensor.Tensor // (T, in) input sequence
	h     *tensor.Tensor // (T, hidden) output sequence
	steps int

	// Gate activations, cell state and its tanh.
	i, f, g, o, c, tanhC []float64
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
	n := T * H
	slab := make([]float64, 6*n)
	cache := &cellCache{
		x: x, h: out, steps: T,
		i: slab[:n], f: slab[n : 2*n], g: slab[2*n : 3*n], o: slab[3*n : 4*n],
		c: slab[4*n : 5*n], tanhC: slab[5*n:],
	}

	zero := make([]float64, H)
	h, cs := zero, zero // h_{t-1} and c_{t-1}, zero at t = 0
	z := make([]float64, 4*H)

	for t := 0; t < T; t++ {
		c.preact(x.Row(t), h, z)

		row := t * H
		it, ft, gt, ot := cache.i[row:row+H], cache.f[row:row+H], cache.g[row:row+H], cache.o[row:row+H]
		ct, tc := cache.c[row:row+H], cache.tanhC[row:row+H]
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
		h, cs = hrow, ct
	}
	return out, cache, nil
}

// preact computes the packed gate pre-activations z = b + x·Wx + h·Wh for one
// step with the blocked tensor.VecMatAcc kernel. The batch Forward pass calls
// it per step, and Infer (which runs the x·Wx half for every step before the
// recurrence) adds the same terms in this order, so inference is bit-for-bit
// identical to training's forward pass: floating-point addition is not
// associative, so sharing the accumulation order is what makes the equality
// exact rather than approximate.
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

// Backward backpropagates dL/dH (shape (T, hidden)) through the cached
// forward pass, accumulating parameter gradients, and returns dL/dX of shape
// (T, in).
//
// Every product runs on the blocked tensor.VecMatAcc kernel. Step t's dz is
// row T-1-t of one (T, 4H) buffer. dx row t and the dh carried to step t-1
// are dz·Wxᵀ and dz·Whᵀ, each summed from zero over the gate axis. After
// the recurrence, dWx += Xᵀ·dz and dWh += Hᵀ·dz add the steps in the
// descending order the recurrence visits them. Each sum keeps the order of
// the per-step scalar loops these replaced, so the gradients are
// bit-identical to theirs for finite values (see tensor.VecMatAcc).
// Backward accumulates into the cell's gradients and transposes into
// buffers the cell keeps, so it is for one goroutine at a time.
func (c *LSTMCell) Backward(cache *cellCache, dh *tensor.Tensor) (*tensor.Tensor, error) {
	T, H := cache.steps, c.hidden
	if dh.Dims() != 2 || dh.Dim(0) != T || dh.Dim(1) != H {
		return nil, fmt.Errorf("rnn: %s backward expects (%d, %d) grad, got %v", c.name, T, H, dh.Shape())
	}
	G := 4 * H
	dx := tensor.New(T, c.in)
	if T == 0 {
		return dx, nil
	}
	if c.wxT == nil {
		c.wxT, c.whT = make([]float64, G*c.in), make([]float64, G*H)
	}
	tensor.TransposeInto(c.wxT, c.wx.Value.Data(), c.in, G)
	tensor.TransposeInto(c.whT, c.wh.Value.Data(), H, G)
	bg := c.b.Grad.Data()

	dz := make([]float64, T*G)
	zero := make([]float64, H)
	dhNext := make([]float64, H) // gradient flowing into h_t from step t+1
	dcNext := make([]float64, H)

	for t := T - 1; t >= 0; t-- {
		row := t * H
		it, ft, gt, ot := cache.i[row:row+H], cache.f[row:row+H], cache.g[row:row+H], cache.o[row:row+H]
		tc := cache.tanhC[row : row+H]
		cPrev := zero
		if t > 0 {
			cPrev = cache.c[row-H : row]
		}
		dhRow := dh.Row(t)
		dzt := dz[(T-1-t)*G : (T-t)*G]

		for j := 0; j < H; j++ {
			dht := dhRow[j] + dhNext[j]
			dot := dht * tc[j]
			dct := dcNext[j] + dht*ot[j]*(1-tc[j]*tc[j])
			dit := dct * gt[j]
			dft := dct * cPrev[j]
			dgt := dct * it[j]
			dcNext[j] = dct * ft[j]

			dzt[j] = dit * it[j] * (1 - it[j])
			dzt[H+j] = dft * ft[j] * (1 - ft[j])
			dzt[2*H+j] = dgt * (1 - gt[j]*gt[j])
			dzt[3*H+j] = dot * ot[j] * (1 - ot[j])
		}
		for j, d := range dzt {
			bg[j] += d
		}

		tensor.VecMatAcc(dx.Row(t), dzt, c.wxT)
		clear(dhNext)
		tensor.VecMatAcc(dhNext, dzt, c.whT)
	}

	// h_{t-1} is zero at t = 0, so dWh takes only the first T-1 dz rows.
	tensor.GemmAcc(c.wx.Grad.Data(), stepsDescT(cache.x.Data(), T, c.in), dz, c.in, T, G)
	tensor.GemmAcc(c.wh.Grad.Data(), stepsDescT(cache.h.Data(), T-1, H), dz[:(T-1)*G], H, T-1, G)
	return dx, nil
}

// stepsDescT returns the first steps rows of a (·, w) sequence transposed
// with the steps last first, out[k][r] = seq[steps-1-r][k], so that column
// r pairs with Backward's dz row r.
func stepsDescT(seq []float64, steps, w int) []float64 {
	out := make([]float64, w*steps)
	for r := 0; r < steps; r++ {
		for k, v := range seq[(steps-1-r)*w : (steps-r)*w] {
			out[k*steps+r] = v
		}
	}
	return out
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
