package rnn

import (
	"fmt"

	"darnet/internal/nn"
	"darnet/internal/tensor"
)

// Stream evaluates a Classifier incrementally over a live sample feed. Each
// Push advances the recurrent state by one step, so the per-tick cost is one
// cell step per layer instead of a full window recompute; when the window
// completes, Classify only has to mean-pool the buffered top-layer outputs
// and run the softmax head.
//
// The windows produced by collect's assembler are tumbling (they advance by a
// full window, never overlapping), so the incremental state resets to zero at
// each window boundary — exactly the zero initial state Forward uses — and
// the streamed result is bit-for-bit identical to the batch recompute. The
// fast path requires a unidirectional stack: a bidirectional layer needs the
// whole window before its backward-time direction can run, so bidirectional
// classifiers fall back to buffering the window and running Infer on the
// stream's own workspace, behind the same API.
type Stream struct {
	c      *Classifier
	window int
	n      int // samples pushed into the current window

	// Incremental path (all-unidirectional stacks): per-layer carried state.
	cells  []*LSTMCell
	h      [][]float64
	cs     [][]float64
	z      []float64      // packed-gate scratch sized for the widest layer
	top    *tensor.Tensor // (window, top width) top-layer outputs, chronological
	pooled []float64      // head input and output scratch
	logits []float64

	// Buffered fallback (bidirectional stacks): the window and the
	// stream's own inference workspace.
	buf *tensor.Tensor // (window, in)
	ws  *Workspace
	in  int
}

// NewStream returns a Stream over windows of the given length.
func (c *Classifier) NewStream(window int) (*Stream, error) {
	if window <= 0 {
		return nil, fmt.Errorf("rnn: stream window must be positive, got %d", window)
	}
	if len(c.layers) == 0 {
		return nil, fmt.Errorf("rnn: %s has no layers", c.name)
	}
	s := &Stream{c: c, window: window}
	switch l := c.layers[0].(type) {
	case *UniLSTM:
		s.in = l.cell.in
	case *BiLSTM:
		s.in = l.In()
	default:
		return nil, fmt.Errorf("rnn: %s: unsupported first layer %T", c.name, l)
	}
	cells := make([]*LSTMCell, 0, len(c.layers))
	for _, l := range c.layers {
		u, ok := l.(*UniLSTM)
		if !ok {
			cells = nil
			break
		}
		cells = append(cells, u.cell)
	}
	if cells == nil {
		ws, err := c.NewWorkspace(window)
		if err != nil {
			return nil, err
		}
		s.buf, s.ws = tensor.New(window, s.in), ws
		return s, nil
	}
	s.cells = cells
	s.h = make([][]float64, len(cells))
	s.cs = make([][]float64, len(cells))
	maxH := 0
	for i, cell := range cells {
		s.h[i] = make([]float64, cell.hidden)
		s.cs[i] = make([]float64, cell.hidden)
		if cell.hidden > maxH {
			maxH = cell.hidden
		}
	}
	s.z = make([]float64, 4*maxH)
	s.top = tensor.New(window, cells[len(cells)-1].hidden)
	s.pooled = make([]float64, cells[len(cells)-1].hidden)
	s.logits = make([]float64, c.classes)
	return s, nil
}

// Incremental reports whether the stream advances state per sample (true for
// unidirectional stacks) or buffers the window for a batch recompute.
func (s *Stream) Incremental() bool { return s.cells != nil }

// Window returns the configured window length; Len the samples pushed so far.
func (s *Stream) Window() int { return s.window }

// Len returns the number of samples in the current partial window.
func (s *Stream) Len() int { return s.n }

// Push feeds one sample (already normalized, length = classifier input width)
// and reports whether the window is now complete and Classify may be called.
func (s *Stream) Push(features []float64) (ready bool, err error) {
	if len(features) != s.in {
		return false, fmt.Errorf("rnn: stream sample has %d features, want %d", len(features), s.in)
	}
	if s.n >= s.window {
		return false, fmt.Errorf("rnn: stream window full (%d samples); call Classify or Reset", s.window)
	}
	if s.cells == nil {
		copy(s.buf.Row(s.n), features)
		s.n++
		return s.n == s.window, nil
	}
	x := features
	for i, cell := range s.cells {
		cell.stepInfer(x, s.h[i], s.cs[i], s.z[:4*cell.hidden])
		x = s.h[i]
	}
	copy(s.top.Row(s.n), x)
	s.n++
	return s.n == s.window, nil
}

// Classify finishes the completed window — mean-pool over time, softmax head
// — returns the class distribution, and resets the stream for the next
// window. It errors if the window is not yet complete.
func (s *Stream) Classify() ([]float64, error) {
	if s.n != s.window {
		return nil, fmt.Errorf("rnn: stream window has %d of %d samples", s.n, s.window)
	}
	out := make([]float64, s.c.classes)
	if s.cells == nil {
		probs, err := s.c.Infer(s.ws, s.buf)
		if err != nil {
			return nil, err
		}
		copy(out, probs)
		s.Reset()
		return out, nil
	}
	// Pool and run the head exactly as Infer does — a rolling mean would
	// change the addition order and break bit-for-bit equality with the
	// batch path.
	s.c.poolHead(s.top.Data(), s.window, s.pooled, s.logits)
	nn.SoftmaxInto(out, s.logits)
	s.Reset()
	return out, nil
}

// Reset discards the current partial window and zeroes the recurrent state,
// matching the zero initial state of a fresh batch forward.
func (s *Stream) Reset() {
	s.n = 0
	for i := range s.h {
		for j := range s.h[i] {
			s.h[i][j] = 0
			s.cs[i][j] = 0
		}
	}
}
