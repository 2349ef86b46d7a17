package rnn

import (
	"errors"
	"fmt"

	"darnet/internal/nn"
	"darnet/internal/tensor"
)

// Workspace is the scratch one Classifier.Infer call needs, sized for
// sequences of up to the step count it was built for: two ping-pong layer-output buffers, the
// input projection of every step, the carried hidden and cell state, and the
// pooled, logit and probability rows of the head. A workspace belongs to one
// goroutine at a time; the classifier's weights are shared read-only.
type Workspace struct {
	c     *Classifier
	steps int

	seq    [2][]float64 // layer outputs, steps × widest layer
	zx     []float64    // per-step gate pre-activations, steps × 4·hidden
	h, cs  []float64    // carried state of the running direction
	pooled []float64
	logits []float64
	probs  []float64
}

// NewWorkspace returns a workspace for sequences of up to steps rows.
func (c *Classifier) NewWorkspace(steps int) (*Workspace, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("rnn: workspace needs a positive step count, got %d", steps)
	}
	maxW, maxH := 0, 0
	for _, l := range c.layers {
		maxW = max(maxW, l.OutWidth())
		maxH = max(maxH, l.hidden())
	}
	return &Workspace{
		c:      c,
		steps:  steps,
		seq:    [2][]float64{make([]float64, steps*maxW), make([]float64, steps*maxW)},
		zx:     make([]float64, steps*4*maxH),
		h:      make([]float64, maxH),
		cs:     make([]float64, maxH),
		pooled: make([]float64, c.layers[len(c.layers)-1].OutWidth()),
		logits: make([]float64, c.classes),
		probs:  make([]float64, c.classes),
	}, nil
}

// Infer returns the class distribution for one (T, input) sequence, T at
// most the workspace's step count. The result is a view into ws, valid until ws is used
// again. Infer never allocates and writes nothing outside ws, so concurrent
// calls with distinct workspaces are safe. It computes exactly what the
// training forward pass does: the same blocked gate kernel and the same
// accumulation order, so the result is bit-identical to it.
//
//lint:hotpath
func (c *Classifier) Infer(ws *Workspace, seq *tensor.Tensor) ([]float64, error) {
	logits, err := c.inferLogits(ws, seq)
	if err != nil {
		return nil, err
	}
	nn.SoftmaxInto(ws.probs, logits)
	return ws.probs, nil
}

var errForeignWorkspace = errors.New("rnn: workspace was built for another classifier")

// inferLogits runs the stack and the head, returning the logits in ws.
func (c *Classifier) inferLogits(ws *Workspace, seq *tensor.Tensor) ([]float64, error) {
	if ws == nil || ws.c != c {
		return nil, errForeignWorkspace
	}
	in := c.layers[0].in()
	if seq.Dims() != 2 || seq.Dim(1) != in || seq.Dim(0) == 0 || seq.Dim(0) > ws.steps {
		//lint:ignore hotalloc a malformed sequence is a caller bug on a cold error path
		return nil, fmt.Errorf("rnn: %s: sequence %v does not fit (1..%d, %d)", c.name, seq.Shape(), ws.steps, in)
	}
	T := seq.Dim(0)
	x := seq.Data()
	for i, l := range c.layers {
		out := ws.seq[i%2][:T*l.OutWidth()]
		l.inferSeq(ws, x, T, out)
		x = out
	}
	c.poolHead(x, T, ws.pooled, ws.logits)
	return ws.logits, nil
}

// poolHead mean-pools the (T, width) top-layer rows in top into pooled and
// runs the dense head into logits. It accumulates rows in time order and
// scales once, as the training forward pass does, which keeps Infer
// bit-identical to it.
func (c *Classifier) poolHead(top []float64, T int, pooled, logits []float64) {
	W := len(pooled)
	clear(pooled)
	for t := 0; t < T; t++ {
		for j, v := range top[t*W : (t+1)*W] {
			pooled[j] += v
		}
	}
	inv := 1.0 / float64(T)
	for j := range pooled {
		pooled[j] *= inv
	}
	c.head.InferInto(pooled, logits)
}

// infer runs the cell over the T rows of x (row-major, width in) from a zero
// state, writing h_t to out[t*stride+off:] for every t. reverse runs time
// backwards, the backward direction of a BiLSTM. The input projection of all
// T steps is one blocked GEMM before the recurrence; per step it adds the
// same terms in the same order as preact, so the result is bit-identical to
// Forward.
func (c *LSTMCell) infer(ws *Workspace, x []float64, T int, reverse bool, out []float64, stride, off int) {
	H, G := c.hidden, 4*c.hidden
	zx := ws.zx[:T*G]
	b, wx := c.b.Value.Data(), c.wx.Value.Data()
	for t := 0; t < T; t++ {
		copy(zx[t*G:(t+1)*G], b)
	}
	tensor.GemmAcc(zx, x[:T*c.in], wx, T, c.in, G)
	h, cs := ws.h[:H], ws.cs[:H]
	clear(h)
	clear(cs)
	wh := c.wh.Value.Data()
	for s := 0; s < T; s++ {
		t := s
		if reverse {
			t = T - 1 - s
		}
		z := zx[t*G : (t+1)*G]
		tensor.VecMatAcc(z, h, wh)
		c.gates(z, h, cs)
		copy(out[t*stride+off:t*stride+off+H], h)
	}
}

// inferSeq implements seqLayer.
func (b *BiLSTM) inferSeq(ws *Workspace, x []float64, T int, out []float64) {
	H := b.fwd.hidden
	b.fwd.infer(ws, x, T, false, out, 2*H, 0)
	b.bwd.infer(ws, x, T, true, out, 2*H, H)
}

// inferSeq implements seqLayer.
func (u *UniLSTM) inferSeq(ws *Workspace, x []float64, T int, out []float64) {
	u.cell.infer(ws, x, T, false, out, u.cell.hidden, 0)
}

// getWorkspace takes a workspace for sequences of steps rows from the
// classifier's pool, building one when the pool has none that large.
func (c *Classifier) getWorkspace(steps int) (*Workspace, error) {
	if ws, ok := c.workspaces.Get().(*Workspace); ok && ws.steps >= steps {
		return ws, nil
	}
	return c.NewWorkspace(steps)
}
