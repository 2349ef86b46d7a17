package nn

import (
	"fmt"
	"math"

	"darnet/internal/tensor"
)

// BatchNorm normalizes activations using batch statistics during training and
// running statistics during inference, with learned scale (gamma) and shift
// (beta). Statistics are computed per normalization group:
//
//   - width groups == features: classic 1-D batch norm (per feature column);
//   - groups == channels of a C×H×W volume: spatial batch norm (statistics
//     pooled over the batch and the spatial plane, per channel).
type BatchNorm struct {
	name     string
	width    int // row width consumed by the layer
	groups   int // number of normalization groups (width % groups == 0)
	momentum float64
	eps      float64

	gamma *Param
	beta  *Param

	// Running statistics are non-trainable state, exposed via StateParams
	// so snapshots can persist them.
	runMean *Param
	runVar  *Param

	// Training caches, nil until a training-mode Forward.
	xhat   *tensor.Tensor
	stdInv []float64
}

// NewBatchNorm returns a batch-normalization layer over rows of the given
// width with the given number of groups (use groups == width for 1-D batch
// norm, groups == channel count for spatial batch norm). It panics if groups
// does not divide width (a construction-time programming error).
func NewBatchNorm(name string, width, groups int) *BatchNorm {
	if groups <= 0 || width <= 0 || width%groups != 0 {
		panic(fmt.Sprintf("nn: %s: groups %d must divide width %d", name, groups, width))
	}
	bn := &BatchNorm{
		name:     name,
		width:    width,
		groups:   groups,
		momentum: 0.9,
		eps:      1e-5,
		gamma:    NewParam(name+".gamma", tensor.Full(1, groups)),
		beta:     NewParam(name+".beta", tensor.New(groups)),
		runMean:  NewParam(name+".runmean", tensor.New(groups)),
		runVar:   NewParam(name+".runvar", tensor.Full(1, groups)),
	}
	return bn
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.gamma, b.beta} }

// StateParams implements Stateful: the running mean and variance.
func (b *BatchNorm) StateParams() []*Param { return []*Param{b.runMean, b.runVar} }

// OutFeatures implements Layer.
func (b *BatchNorm) OutFeatures(in int) (int, error) {
	if in != b.width {
		return 0, errBadWidth(b.name, b.width, in)
	}
	return in, nil
}

// group returns the normalization group of flat feature index j.
// Features are laid out as contiguous per-group blocks (channel-major for
// spatial volumes), so the group is j / (width/groups).
func (b *BatchNorm) group(j int) int { return j / (b.width / b.groups) }

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Dims() != 2 || x.Dim(1) != b.width {
		return nil, errBadWidth(b.name, b.width, x.Dim(x.Dims()-1))
	}
	n := x.Dim(0)
	per := b.width / b.groups
	out := tensor.New(n, b.width)
	gd := b.gamma.Value.Data()
	bd := b.beta.Value.Data()

	if !train {
		rm, rv := b.runMean.Value.Data(), b.runVar.Value.Data()
		for s := 0; s < n; s++ {
			xrow, orow := x.Row(s), out.Row(s)
			for j, v := range xrow {
				g := j / per
				orow[j] = gd[g]*(v-rm[g])/math.Sqrt(rv[g]+b.eps) + bd[g]
			}
		}
		return out, nil
	}

	count := float64(n * per)
	mean := make([]float64, b.groups)
	variance := make([]float64, b.groups)
	for s := 0; s < n; s++ {
		xrow := x.Row(s)
		for j, v := range xrow {
			mean[j/per] += v
		}
	}
	for g := range mean {
		mean[g] /= count
	}
	for s := 0; s < n; s++ {
		xrow := x.Row(s)
		for j, v := range xrow {
			d := v - mean[j/per]
			variance[j/per] += d * d
		}
	}
	for g := range variance {
		variance[g] /= count
	}

	b.stdInv = make([]float64, b.groups)
	for g := range b.stdInv {
		b.stdInv[g] = 1 / math.Sqrt(variance[g]+b.eps)
	}
	b.xhat = tensor.New(n, b.width)
	for s := 0; s < n; s++ {
		xrow, hrow, orow := x.Row(s), b.xhat.Row(s), out.Row(s)
		for j, v := range xrow {
			g := j / per
			h := (v - mean[g]) * b.stdInv[g]
			hrow[j] = h
			orow[j] = gd[g]*h + bd[g]
		}
	}
	rm, rv := b.runMean.Value.Data(), b.runVar.Value.Data()
	for g := range mean {
		rm[g] = b.momentum*rm[g] + (1-b.momentum)*mean[g]
		rv[g] = b.momentum*rv[g] + (1-b.momentum)*variance[g]
	}
	return out, nil
}

// Backward implements Layer.
func (b *BatchNorm) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkBackward(b.name, b.xhat, b.width, grad); err != nil {
		return nil, err
	}
	n := grad.Dim(0)
	per := b.width / b.groups
	count := float64(n * per)
	gd := b.gamma.Value.Data()
	gg := b.gamma.Grad.Data()
	bg := b.beta.Grad.Data()

	// Accumulate per-group sums needed by the batch-norm backward formula.
	sumG := make([]float64, b.groups)  // Σ grad
	sumGH := make([]float64, b.groups) // Σ grad * xhat
	for s := 0; s < n; s++ {
		grow, hrow := grad.Row(s), b.xhat.Row(s)
		for j, gv := range grow {
			g := j / per
			sumG[g] += gv
			sumGH[g] += gv * hrow[j]
		}
	}
	for g := 0; g < b.groups; g++ {
		gg[g] += sumGH[g]
		bg[g] += sumG[g]
	}

	dx := tensor.New(n, b.width)
	for s := 0; s < n; s++ {
		grow, hrow, drow := grad.Row(s), b.xhat.Row(s), dx.Row(s)
		for j, gv := range grow {
			g := j / per
			drow[j] = gd[g] * b.stdInv[g] / count *
				(count*gv - sumG[g] - hrow[j]*sumGH[g])
		}
	}
	return dx, nil
}
