package nn

import (
	"math/rand"

	"darnet/internal/tensor"
)

// Dense is a fully connected layer computing y = x·W + b, where W has shape
// (in, out) and b has shape (out).
type Dense struct {
	name string
	in   int
	out  int
	w    *Param
	b    *Param

	x *tensor.Tensor // cached input for Backward
}

// NewDense returns a fully connected layer with He-initialized weights.
func NewDense(name string, rng *rand.Rand, in, out int) *Dense {
	return &Dense{
		name: name,
		in:   in,
		out:  out,
		w:    NewParam(name+".w", HeInit(rng, in, in, out)),
		b:    NewParam(name+".b", tensor.New(out)),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// OutFeatures implements Layer.
func (d *Dense) OutFeatures(in int) (int, error) {
	if in != d.in {
		return 0, errBadWidth(d.name, d.in, in)
	}
	return d.out, nil
}

// In returns the layer's input width.
func (d *Dense) In() int { return d.in }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 2 || x.Dim(1) != d.in {
		return nil, errBadWidth(d.name, d.in, x.Dim(x.Dims()-1))
	}
	y, err := tensor.MatMul(x, d.w.Value)
	if err != nil {
		return nil, err
	}
	if err := y.AddRowVector(d.b.Value); err != nil {
		return nil, err
	}
	if train {
		d.x = x
	}
	return y, nil
}

// Backward implements Layer. Both products are MatMul over a Transpose, so
// they run on the blocked tensor.VecMatAcc kernel and sum in the order of
// the transposed-product loops they replaced.
func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkBackward(d.name, d.x, d.out, grad); err != nil {
		return nil, err
	}
	xT, err := tensor.Transpose(d.x)
	if err != nil {
		return nil, err
	}
	dw, err := tensor.MatMul(xT, grad) // dW = xᵀ · grad
	if err != nil {
		return nil, err
	}
	d.w.Grad.AddInPlace(dw)

	db, err := grad.SumRows()
	if err != nil {
		return nil, err
	}
	d.b.Grad.AddInPlace(db)

	wT, err := tensor.Transpose(d.w.Value)
	if err != nil {
		return nil, err
	}
	return tensor.MatMul(grad, wT) // dX = grad · Wᵀ
}
