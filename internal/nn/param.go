// Package nn is a from-scratch CPU deep-learning library: composable layers
// (dense, convolution, pooling, batch normalization, dropout, inception-style
// parallel modules), loss functions, and first-order optimizers. It provides
// the CNN substrate that DarNet's frame classifier and privacy-preserving
// dCNN models are built on.
//
// Layers operate on 2-D batches: every input and output tensor has shape
// (N, features), where spatially structured layers (Conv2D, pooling) interpret
// the feature axis as a flattened C×H×W volume whose geometry is fixed at
// construction time.
package nn

import (
	"fmt"

	"darnet/internal/tensor"
)

// Param is a trainable parameter: a value tensor and its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam returns a parameter wrapping value, with a zeroed gradient of the
// same shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Shape()...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch (N, inFeatures) and produces (N, outFeatures).
// When train is true the layer may cache activations needed by Backward and
// apply training-only behaviour (dropout masks, batch statistics).
//
// Backward consumes dL/dOut for the most recent Forward call and returns
// dL/dIn, accumulating parameter gradients into Params. Backward without a
// preceding training-mode Forward, or with a grad whose rows do not match
// that Forward's batch, returns an error.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	Params() []*Param
	// OutFeatures reports the width of the layer's output rows given the
	// width of its input rows, or an error if the width is incompatible.
	OutFeatures(in int) (int, error)
}

// errBadWidth builds the standard incompatible-input-width error.
func errBadWidth(layer string, want, got int) error {
	return fmt.Errorf("nn: %s expects input width %d, got %d", layer, want, got)
}

// checkBackward returns the error for a Backward call that cannot pair with
// the layer's last training-mode Forward: cached is the batch that Forward
// cached (nil if none ran), and grad must be one row per cached row, width
// wide.
func checkBackward(layer string, cached *tensor.Tensor, width int, grad *tensor.Tensor) error {
	if cached == nil {
		return fmt.Errorf("nn: %s: Backward without training-mode Forward", layer)
	}
	if grad.Dims() != 2 || grad.Dim(0) != cached.Dim(0) || grad.Dim(1) != width {
		return fmt.Errorf("nn: %s: backward expects a (%d, %d) grad, got %v", layer, cached.Dim(0), width, grad.Shape())
	}
	return nil
}
