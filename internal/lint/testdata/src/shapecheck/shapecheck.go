// Package shapecheck is a lint fixture: tensor/nn shape-literal cases.
package shapecheck

import (
	"darnet/internal/nn"
	"darnet/internal/tensor"
)

func productMismatch() *tensor.Tensor {
	return tensor.MustFromSlice([]float64{1, 2, 3}, 2, 2) // want "dims multiply to 4 but the data literal has 3 elements"
}

func productMismatchFromSlice() (*tensor.Tensor, error) {
	return tensor.FromSlice([]float64{1, 2}, 3) // want "dims multiply to 3 but the data literal has 2 elements"
}

func negativeDim() *tensor.Tensor {
	return tensor.New(3, -1) // want "dimension -1 is negative"
}

func productCompliant() *tensor.Tensor {
	return tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
}

func groupMismatch() *nn.BatchNorm {
	return nn.NewBatchNorm("bn", 10, 3) // want "width 10 is not divisible into 3 groups"
}

func groupsCompliant() *nn.BatchNorm {
	return nn.NewBatchNorm("bn", 12, 3)
}

func dynamicShapesSkipped(data []float64, dims []int) (*tensor.Tensor, error) {
	return tensor.FromSlice(data, dims...)
}

func suppressed() *tensor.Tensor {
	//lint:ignore shapeflow fixture demonstrates suppression
	return tensor.MustFromSlice([]float64{1, 2, 3}, 4)
}

func reshapeConstantConstructor() *tensor.Tensor {
	return tensor.New(2, 3).MustReshape(4, 2) // want "MustReshape: new dims multiply to 8 but the tensor has 6 elements$"
}

func reshapeNegativeLiteral(x *tensor.Tensor) *tensor.Tensor {
	return x.MustReshape(-1, 4) // want "MustReshape dimension -1 is negative \\(always fails\\)"
}
