package nn

import (
	"fmt"
	"sync"

	"darnet/internal/tensor"
)

// Sequential chains layers so the output of one feeds the next. It is itself
// a Layer, so sequences nest inside Parallel modules and other sequences.
type Sequential struct {
	name   string
	layers []Layer

	workspaces sync.Pool // *Workspace, for the pooled inference entry points
}

var _ Layer = (*Sequential)(nil)

// NewSequential returns a network applying the given layers in order.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Add appends a layer to the sequence.
func (s *Sequential) Add(l Layer) { s.layers = append(s.layers, l) }

// Layers returns the underlying layer slice (not a copy; callers must not
// mutate it while the network is in use).
func (s *Sequential) Layers() []Layer { return s.layers }

// Params implements Layer, returning all trainable parameters in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutFeatures implements Layer by threading the width through every stage.
func (s *Sequential) OutFeatures(in int) (int, error) {
	w := in
	for _, l := range s.layers {
		var err error
		w, err = l.OutFeatures(w)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return w, nil
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	var err error
	for _, l := range s.layers {
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("%s: forward %s: %w", s.name, l.Name(), err)
		}
	}
	return x, nil
}

// Backward implements Layer, propagating in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad, err = s.layers[i].Backward(grad)
		if err != nil {
			return nil, fmt.Errorf("%s: backward %s: %w", s.name, s.layers[i].Name(), err)
		}
	}
	return grad, nil
}

// ZeroGrad clears every parameter gradient in the network.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// Predict returns the network's outputs for a batch: one Infer per row on a
// workspace from the network's pool, so concurrent callers share only the
// weights.
func (s *Sequential) Predict(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 2 {
		return nil, fmt.Errorf("nn: %s: inference needs a 2-D batch, got %d-D", s.name, x.Dims())
	}
	w, err := s.OutFeatures(x.Dim(1))
	if err != nil {
		return nil, err
	}
	ws, err := s.getWorkspace(x.Dim(1))
	if err != nil {
		return nil, err
	}
	defer s.workspaces.Put(ws)
	out := tensor.New(x.Dim(0), w)
	for i := 0; i < x.Dim(0); i++ {
		y, err := s.Infer(ws, x.Row(i))
		if err != nil {
			return nil, err
		}
		copy(out.Row(i), y)
	}
	return out, nil
}

// Stateful is implemented by layers carrying non-trainable state (such as
// batch-norm running statistics) that snapshots must persist alongside the
// trainable parameters.
type Stateful interface {
	StateParams() []*Param
}

// StateParams implements Stateful by collecting nested layers' state.
func (s *Sequential) StateParams() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		if st, ok := l.(Stateful); ok {
			ps = append(ps, st.StateParams()...)
		}
	}
	return ps
}

// NumParams returns the total number of scalar trainable parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Value.Size()
	}
	return n
}
