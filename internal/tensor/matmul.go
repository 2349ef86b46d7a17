package tensor

import "fmt"

// MatMul returns the matrix product a×b of two 2-D tensors.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		return nil, fmt.Errorf("tensor: matmul requires 2-D operands, got %v and %v", a.shape, b.shape)
	}
	if a.shape[1] != b.shape[0] {
		return nil, fmt.Errorf("tensor: matmul inner dimensions differ: %v × %v", a.shape, b.shape)
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	GemmAcc(out.data, a.data, b.data, m, k, n)
	return out, nil
}

// MustMatMul is MatMul but panics on shape mismatch. Intended for internal
// layer code where shapes are established invariants.
func MustMatMul(a, b *Tensor) *Tensor {
	out, err := MatMul(a, b)
	if err != nil {
		panic(err)
	}
	return out
}

// GemmAcc accumulates the matrix product dst += a×b for row-major a (m×k),
// b (k×n) and dst (m×n). Rows of dst go two at a time through vecMatAcc2,
// so each loaded row of b serves both; an odd last row goes through
// VecMatAcc. Every element adds the same products in the same order either
// way.
func GemmAcc(dst, a, b []float64, m, k, n int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		vecMatAcc2(dst[i*n:(i+1)*n], dst[(i+1)*n:(i+2)*n], a[i*k:(i+1)*k], a[(i+1)*k:(i+2)*k], b)
	}
	if i < m {
		VecMatAcc(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], b)
	}
}

// vecMatAcc2 is VecMatAcc into two rows at once: d0 += a·m and d1 += c·m,
// with len(c) = len(a). A block of four rows of m goes through axpy4x2
// when both rows have a nonzero coefficient in it. When one row's four
// coefficients are all zero, that row skips the block exactly as VecMatAcc
// does, and the other row takes it through axpy4 alone. So each row gets
// VecMatAcc's bits, zero-block skips included.
func vecMatAcc2(d0, d1, a, c, m []float64) {
	n := len(d0)
	r := 0
	for ; r+4 <= len(a); r += 4 {
		m0, m1, m2, m3 := m[r*n:r*n+n], m[(r+1)*n:(r+1)*n+n], m[(r+2)*n:(r+2)*n+n], m[(r+3)*n:(r+3)*n+n]
		a0, a1, a2, a3 := a[r], a[r+1], a[r+2], a[r+3]
		c0, c1, c2, c3 := c[r], c[r+1], c[r+2], c[r+3]
		aZero := a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0
		cZero := c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0
		switch {
		case aZero && cZero:
		case cZero:
			axpy4(d0, m0, m1, m2, m3, a0, a1, a2, a3)
		case aZero:
			axpy4(d1, m0, m1, m2, m3, c0, c1, c2, c3)
		default:
			axpy4x2(d0, d1, m0, m1, m2, m3, a0, a1, a2, a3, c0, c1, c2, c3)
		}
	}
	// Fewer than four coefficients remain: VecMatAcc runs them one at a
	// time.
	VecMatAcc(d0, a[r:], m[r*n:])
	VecMatAcc(d1, c[r:], m[r*n:])
}

// VecMatAcc accumulates a vector-matrix product into dst: for a row-major
// matrix m of len(a) rows by len(dst) columns,
//
//	dst[j] += a[0]·m[0][j] + a[1]·m[1][j] + … + a[r]·m[r][j].
//
// It is the one multiply-accumulate kernel of the model packages. Forward
// passes: MatMul, the convolution's im2col × weights product, the dense
// layers and the LSTM gate projections. Backward passes: the dense layer's
// dW = xᵀ·grad and dX = grad·Wᵀ (MatMul over a Transpose), the
// convolution's per-sample dW = grad·colsᵀ and dcols = Wᵀ·grad, and the
// LSTM's dx and dh through Wxᵀ and Whᵀ and its dWx and dWh over the
// steps' dz rows in descending time order.
//
// The loop is register-blocked: each pass over dst (axpy4) takes four rows
// of m, so dst is loaded and stored once per four products instead of once
// per product. axpy4 is the widest kernel the processor runs (see
// kernel_amd64.go). Each dst[j] still adds its products in row order with one
// rounding per addition, exactly as a one-row-at-a-time loop does, so the
// blocking changes the speed and not the result. A block whose four
// coefficients are all zero is skipped, like a zero coefficient in the
// one-row loop; a zero coefficient inside a live block adds a ±0 product,
// which leaves any sum that starts at +0 or a nonzero value unchanged. So
// a loop that sums every product from +0, zero coefficients included, gets
// the same bits. That holds for finite values only: a skipped zero times a
// NaN or ±Inf partner would have made the sum NaN. m must hold at least
// len(a)·len(dst) values; a shorter m panics on the slice bounds.
func VecMatAcc(dst, a, m []float64) {
	n := len(dst)
	r := 0
	for ; r+4 <= len(a); r += 4 {
		a0, a1, a2, a3 := a[r], a[r+1], a[r+2], a[r+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		axpy4(dst, m[r*n:r*n+n], m[(r+1)*n:(r+1)*n+n], m[(r+2)*n:(r+2)*n+n], m[(r+3)*n:(r+3)*n+n], a0, a1, a2, a3)
	}
	for ; r < len(a); r++ {
		av := a[r]
		if av == 0 {
			continue
		}
		row := m[r*n : r*n+n]
		for j, v := range row {
			dst[j] += av * v
		}
	}
}

// Transpose returns the transpose of a 2-D tensor as a new tensor.
func Transpose(t *Tensor) (*Tensor, error) {
	if len(t.shape) != 2 {
		return nil, fmt.Errorf("tensor: transpose requires a 2-D tensor, got %v", t.shape)
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	TransposeInto(out.data, t.data, m, n)
	return out, nil
}

// TransposeInto writes the (n, m) transpose of the row-major (m, n) matrix
// src into dst, which holds at least m·n values. It copies 8×8 tiles, so
// the strided writes of a tile's columns land in cache lines the tile's
// previous rows just touched, even when dst is a reused buffer that has
// left the cache.
func TransposeInto(dst, src []float64, m, n int) {
	const tile = 8
	for i0 := 0; i0 < m; i0 += tile {
		i1 := min(i0+tile, m)
		for j0 := 0; j0 < n; j0 += tile {
			j1 := min(j0+tile, n)
			for i := i0; i < i1; i++ {
				for j, v := range src[i*n+j0 : i*n+j1] {
					dst[(j0+j)*m+i] = v
				}
			}
		}
	}
}

// AddRowVector adds vector v (length n) to every row of a 2-D m×n tensor.
func (t *Tensor) AddRowVector(v *Tensor) error {
	if len(t.shape) != 2 {
		return fmt.Errorf("tensor: AddRowVector on %d-D tensor", len(t.shape))
	}
	n := t.shape[1]
	if v.Size() != n {
		return fmt.Errorf("tensor: AddRowVector length %d for width %d", v.Size(), n)
	}
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		for j := range row {
			row[j] += v.data[j]
		}
	}
	return nil
}

// SumRows returns a length-n vector holding the column sums of an m×n tensor.
func (t *Tensor) SumRows() (*Tensor, error) {
	if len(t.shape) != 2 {
		return nil, fmt.Errorf("tensor: SumRows on %d-D tensor", len(t.shape))
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out, nil
}
