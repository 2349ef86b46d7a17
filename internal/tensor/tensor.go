// Package tensor provides dense, row-major float64 tensors and the linear
// algebra kernels (matmul, transposes, im2col) that the neural-network,
// recurrent-network, and SVM packages are built on.
//
// Tensors are mutable and share underlying storage when documented to do so
// (Reshape, View). All shape mismatches are reported as errors or, for the
// handful of hot-path helpers that would make error plumbing impractical
// inside inner training loops, as panics that indicate a programming error
// rather than a data-dependent condition.
package tensor

import (
	"fmt"
	"math/rand"
	"strings"
)

// Tensor is a dense row-major array of float64 values.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64
}

// New returns a zero-filled tensor with the given shape.
// A tensor with no dimensions holds a single scalar element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float64, n),
	}
	t.strides = computeStrides(t.shape)
	return t
}

// FromSlice returns a tensor with the given shape backed by a copy of data.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	t := New(shape...)
	if len(data) != len(t.data) {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, len(t.data))
	}
	copy(t.data, data)
	return t, nil
}

// MustFromSlice is FromSlice but panics on shape mismatch. Intended for
// constants and tests where the shape is statically known.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn returns a tensor of normally distributed values with the given
// standard deviation, drawn from rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * std
	}
	return t
}

// Uniform returns a tensor of values drawn uniformly from [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// Shape returns a copy of the tensor's dimensions.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape.
// The element count must match.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (size %d) to %v (size %d)", t.shape, len(t.data), shape, n)
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    t.data,
	}, nil
}

// MustReshape is Reshape but panics on element-count mismatch.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

func (t *Tensor) index(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx)] }

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx)] = v }

// Row returns a view of row i of a 2-D tensor, sharing storage.
func (t *Tensor) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on %d-D tensor", len(t.shape)))
	}
	cols := t.shape[1]
	return t.data[i*cols : (i+1)*cols]
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&sb, "%v", t.data)
	} else {
		fmt.Fprintf(&sb, "[%g %g ... %g] (n=%d)", t.data[0], t.data[1], t.data[len(t.data)-1], len(t.data))
	}
	return sb.String()
}

// --- Element-wise arithmetic -------------------------------------------------

func (t *Tensor) binaryInPlace(o *Tensor, f func(a, b float64) float64, op string) *Tensor {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, t.shape, o.shape))
	}
	for i := range t.data {
		t.data[i] = f(t.data[i], o.data[i])
	}
	return t
}

// AddInPlace adds o element-wise into t and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: add size mismatch %v vs %v", t.shape, o.shape))
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// SubInPlace subtracts o element-wise from t and returns t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: sub size mismatch %v vs %v", t.shape, o.shape))
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
	return t
}

// MulInPlace multiplies t by o element-wise (Hadamard product) and returns t.
func (t *Tensor) MulInPlace(o *Tensor) *Tensor {
	return t.binaryInPlace(o, func(a, b float64) float64 { return a * b }, "mul")
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScaledInPlace performs t += s*o and returns t (axpy).
func (t *Tensor) AddScaledInPlace(o *Tensor, s float64) *Tensor {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: axpy size mismatch %v vs %v", t.shape, o.shape))
	}
	for i, v := range o.data {
		t.data[i] += s * v
	}
	return t
}

// Apply replaces every element x with f(x) and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Add returns a new tensor a+b.
func Add(a, b *Tensor) *Tensor { return a.Clone().AddInPlace(b) }

// --- Reductions --------------------------------------------------------------

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
// It panics on an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// ArgMaxRow returns, for each row of a 2-D tensor, the column index of the
// row's maximum element.
func (t *Tensor) ArgMaxRow() []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRow on %d-D tensor", len(t.shape)))
	}
	out := make([]int, t.shape[0])
	for i := range out {
		row := t.Row(i)
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[i] = bi
	}
	return out
}
