package nn

import "darnet/internal/tensor"

// ReLU is the rectified-linear activation layer, applied element-wise.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer; activations have no parameters.
func (r *ReLU) Params() []*Param { return nil }

// OutFeatures implements Layer; activations preserve width.
func (r *ReLU) OutFeatures(in int) (int, error) { return in, nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	out := x.Clone()
	if train {
		if cap(r.mask) < out.Size() {
			r.mask = make([]bool, out.Size())
		}
		r.mask = r.mask[:out.Size()]
	}
	d := out.Data()
	for i, v := range d {
		pos := v > 0
		if !pos {
			d[i] = 0
		}
		if train {
			r.mask[i] = pos
		}
	}
	return out, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	out := grad.Clone()
	d := out.Data()
	for i := range d {
		if !r.mask[i] {
			d[i] = 0
		}
	}
	return out, nil
}
