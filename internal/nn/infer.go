package nn

import (
	"errors"
	"fmt"
	"math"

	"darnet/internal/tensor"
)

// Inference is split from training. Forward(x, train) is the training path:
// layers cache inputs, masks and batch statistics on themselves for
// Backward. Infer reads only the weights and keeps all of its scratch in a
// Workspace, one per concurrent caller, so any number of goroutines may run
// inference over one network at once as long as nothing trains it meanwhile.

// Workspace is the scratch one Sequential.Infer call needs: an output buffer
// per layer, the convolution patch matrices and the folded batch-norm scale
// and shift, all sized once from OutFeatures when the workspace is built.
// A workspace belongs to one goroutine at a time and to the network it was
// built for.
type Workspace struct {
	net  *Sequential
	in   int
	root step
}

// step is one layer's share of a Workspace.
type step struct {
	layer   inferer
	out     []float64 // the layer's output; an in-place layer's aliases its input
	scratch []float64 // conv patch matrix, or batch-norm scale then shift
	sub     []step    // a Sequential's layers or a Parallel's towers
}

// inferer is the inference half of a layer: infer reads x and the layer's
// weights and writes only st.out, st.scratch and its sub-steps.
type inferer interface {
	infer(st *step, x []float64)
}

// newStep sizes layer l's step for input rows of width in, writing its
// output into out: the scratch its kernel needs and, for a Sequential or a
// Parallel, the steps of its layers or towers.
func newStep(l Layer, in int, out []float64) (step, error) {
	inf, ok := l.(inferer)
	if !ok {
		return step{}, fmt.Errorf("nn: layer %s has no inference path", l.Name())
	}
	st := step{layer: inf, out: out}
	var err error
	switch l := l.(type) {
	case *Sequential:
		st.sub, err = l.newSteps(in, out)
	case *Parallel:
		st.sub, err = l.newSteps(in, out)
	case *Conv2D:
		// A 1×1 convolution with unit stride and no padding has the input
		// itself as its patch matrix.
		if g := l.geom; g.KH != 1 || g.KW != 1 || g.StrideH != 1 || g.StrideW != 1 || g.PadH != 0 || g.PadW != 0 {
			st.scratch = make([]float64, l.patchRows()*g.OutH()*g.OutW())
		}
	case *BatchNorm:
		st.scratch = make([]float64, 2*l.groups) // folded scale, then shift
	}
	return st, err
}

// inPlace reports whether a layer computes each output element from the
// input element at the same index, so it may overwrite its input.
func inPlace(l Layer) bool {
	switch l.(type) {
	case *ReLU, *Dropout:
		return true
	}
	return false
}

// NewWorkspace returns a workspace for inference over input rows of width in.
func (s *Sequential) NewWorkspace(in int) (*Workspace, error) {
	out, err := s.OutFeatures(in)
	if err != nil {
		return nil, err
	}
	root, err := newStep(s, in, make([]float64, out))
	if err != nil {
		return nil, err
	}
	return &Workspace{net: s, in: in, root: root}, nil
}

// Infer runs one inference-mode forward pass over the single input row x
// and returns the network's output. The result is a view into ws, valid
// until ws is used again. Infer never allocates and writes nothing outside
// ws, so concurrent calls with distinct workspaces are safe.
//
//lint:hotpath
func (s *Sequential) Infer(ws *Workspace, x []float64) ([]float64, error) {
	if ws == nil || ws.net != s {
		return nil, errForeignWorkspace
	}
	if len(x) != ws.in {
		//lint:ignore hotalloc a wrong-width input is a caller bug on a cold error path
		return nil, fmt.Errorf("nn: %s: input has %d features, workspace built for %d", s.name, len(x), ws.in)
	}
	s.infer(&ws.root, x)
	return ws.root.out, nil
}

var errForeignWorkspace = errors.New("nn: workspace was built for another network")

// getWorkspace takes a workspace for input width in from the network's
// pool, building one when the pool has none of that width.
func (s *Sequential) getWorkspace(in int) (*Workspace, error) {
	if ws, ok := s.workspaces.Get().(*Workspace); ok && ws.in == in {
		return ws, nil
	}
	return s.NewWorkspace(in)
}

// Probs returns the softmax class distribution of the network's output for
// one input row, in a new slice. The scratch comes from a pool the network
// owns, so concurrent callers share the weights and nothing else.
func (s *Sequential) Probs(x []float64) ([]float64, error) {
	ws, err := s.getWorkspace(len(x))
	if err != nil {
		return nil, err
	}
	defer s.workspaces.Put(ws)
	logits, err := s.Infer(ws, x)
	if err != nil {
		return nil, err
	}
	probs := make([]float64, len(logits))
	SoftmaxInto(probs, logits)
	return probs, nil
}

// SoftmaxInto writes the softmax of logits into dst (same length; dst may
// alias logits). Like Softmax it subtracts the maximum before
// exponentiating, so large logits stay finite.
func SoftmaxInto(dst, logits []float64) {
	if len(logits) == 0 {
		return
	}
	dst = dst[:len(logits)]
	m := logits[0]
	for _, v := range logits[1:] {
		if v > m {
			m = v
		}
	}
	sum := 0.0
	for j, v := range logits {
		e := math.Exp(v - m)
		dst[j] = e
		sum += e
	}
	for j := range dst {
		dst[j] /= sum
	}
}

// newSteps sizes the steps of the sequence's layers. The walk runs back to
// front so that each layer writes where its consumer reads: the last layer
// into out, and the producer of an in-place layer straight into that
// layer's buffer.
func (s *Sequential) newSteps(in int, out []float64) ([]step, error) {
	n := len(s.layers)
	widths := make([]int, n+1)
	widths[0] = in
	for i, l := range s.layers {
		w, err := l.OutFeatures(widths[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		widths[i+1] = w
	}
	steps := make([]step, n)
	dst := out
	for i := n - 1; i >= 0; i-- {
		if dst == nil {
			dst = make([]float64, widths[i+1])
		}
		var err error
		if steps[i], err = newStep(s.layers[i], widths[i], dst); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if i == 0 || !inPlace(s.layers[i]) {
			dst = nil
		}
	}
	return steps, nil
}

// infer implements inferer.
func (s *Sequential) infer(st *step, x []float64) {
	if len(st.sub) == 0 {
		copy(st.out, x)
		return
	}
	for i := range st.sub {
		sub := &st.sub[i]
		sub.layer.infer(sub, x)
		x = sub.out
	}
}

// newSteps sizes the towers' steps: each tower writes straight into its
// channel slice of the concatenated output.
func (p *Parallel) newSteps(in int, out []float64) ([]step, error) {
	steps := make([]step, len(p.towers))
	off := 0
	for i, t := range p.towers {
		w, err := t.OutFeatures(in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if steps[i], err = newStep(t, in, out[off:off+w]); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		off += w
	}
	return steps, nil
}

// infer implements inferer.
func (p *Parallel) infer(st *step, x []float64) {
	for i := range st.sub {
		sub := &st.sub[i]
		sub.layer.infer(sub, x)
	}
}

// infer implements inferer: im2col (unless the step has no patch matrix),
// then the blocked im2col × weights kernel that Forward uses.
func (c *Conv2D) infer(st *step, x []float64) {
	cols := x
	if st.scratch != nil {
		c.geom.Im2Col(x, st.scratch)
		cols = st.scratch
	}
	c.convCols(cols, st.out)
}

// infer implements inferer. The running statistics fold into a per-group
// scale γ/√(σ²+ε) and shift β − μ·scale, computed per call so a workspace
// never holds stale weights, leaving one multiply-add per element.
func (b *BatchNorm) infer(st *step, x []float64) {
	scale, shift := st.scratch[:b.groups], st.scratch[b.groups:]
	gd, bd := b.gamma.Value.Data(), b.beta.Value.Data()
	rm, rv := b.runMean.Value.Data(), b.runVar.Value.Data()
	for g := range scale {
		scale[g] = gd[g] / math.Sqrt(rv[g]+b.eps)
		shift[g] = bd[g] - rm[g]*scale[g]
	}
	per := b.width / b.groups
	for g, sc := range scale {
		sh := shift[g]
		dst := st.out[g*per : (g+1)*per]
		for j, v := range x[g*per : (g+1)*per] {
			dst[j] = v*sc + sh
		}
	}
}

// infer implements inferer; out may alias x. As in Forward, everything that
// is not greater than zero becomes +0, a NaN included.
func (r *ReLU) infer(st *step, x []float64) {
	out := st.out[:len(x)]
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// infer implements inferer: inverted dropout is the identity at inference.
func (d *Dropout) infer(st *step, x []float64) { copy(st.out, x) }

// infer implements inferer.
func (m *MaxPool2D) infer(st *step, x []float64) { m.pool(x, st.out, nil) }

// infer implements inferer.
func (g *GlobalAvgPool) infer(st *step, x []float64) { g.pool(x, st.out) }

// infer implements inferer.
func (d *Dense) infer(st *step, x []float64) { d.InferInto(x, st.out) }

// InferInto computes one inference row y = x·W + b into y without touching
// the layer's training state. The products accumulate in the order MatMul
// uses and the bias is added last, as in Forward, so the result is
// bit-identical to Forward on the same row.
func (d *Dense) InferInto(x, y []float64) {
	y = y[:d.out]
	for j := range y {
		y[j] = 0
	}
	tensor.VecMatAcc(y, x[:d.in], d.w.Value.Data())
	for j, bv := range d.b.Value.Data() {
		y[j] += bv
	}
}
