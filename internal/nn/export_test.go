package nn

import (
	"math/rand"

	"darnet/internal/tensor"
)

// LayerRun is one leaf layer, for the per-layer kernel ledgers: Run repeats
// the layer's work on the input it last saw.
type LayerRun struct {
	Name  string
	FLOPs float64 // floating-point operations per call
	Run   func()
}

// InferLayers runs s.Infer(ws, x) once and returns the leaf layers in
// execution order, descending into sequences and parallel towers.
func InferLayers(s *Sequential, ws *Workspace, x []float64) ([]LayerRun, error) {
	if _, err := s.Infer(ws, x); err != nil {
		return nil, err
	}
	var runs []LayerRun
	var walk func(l Layer, st *step, x []float64)
	walk = func(l Layer, st *step, x []float64) {
		switch l := l.(type) {
		case *Sequential:
			for i, sub := range l.layers {
				walk(sub, &st.sub[i], x)
				x = st.sub[i].out
			}
		case *Parallel:
			for i, t := range l.towers {
				walk(t, &st.sub[i], x)
			}
		default:
			inf := st.layer
			runs = append(runs, LayerRun{
				Name:  l.Name(),
				FLOPs: layerFLOPs(l, len(x), len(st.out)),
				Run:   func() { inf.infer(st, x) },
			})
		}
	}
	walk(s, &ws.root, x)
	return runs, nil
}

// layerFLOPs counts a layer's floating-point operations for one input row
// of width in producing out values: a multiply and an add per
// multiply-accumulate, one operation per compared or summed window element,
// one per element for activations and batch norm's multiply-add pair two.
func layerFLOPs(l Layer, in, out int) float64 {
	switch l := l.(type) {
	case *Conv2D:
		return 2 * float64(l.patchRows()) * float64(out)
	case *Dense:
		return 2 * float64(l.in) * float64(l.out)
	case *BatchNorm:
		return 2 * float64(out)
	case *MaxPool2D:
		return float64(l.geom.KH*l.geom.KW) * float64(out)
	case *GlobalAvgPool:
		return float64(in)
	}
	return float64(out)
}

// TrainLayers runs s.Forward(x, true) once and returns its convolution and
// dense layers in execution order, for the per-layer training ledger: Run
// repeats the layer's Forward(in, true) and Backward on the batch it saw,
// with a fixed random output gradient. FLOPs counts the three products
// (forward, dW, dx) per call.
func TrainLayers(s *Sequential, x *tensor.Tensor) ([]LayerRun, error) {
	rng := rand.New(rand.NewSource(1))
	var runs []LayerRun
	var walk func(l Layer, x *tensor.Tensor) (*tensor.Tensor, error)
	walk = func(l Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
		switch l := l.(type) {
		case *Sequential:
			for _, sub := range l.layers {
				var err error
				if x, err = walk(sub, x); err != nil {
					return nil, err
				}
			}
			return x, nil
		case *Parallel:
			for _, t := range l.towers {
				if _, err := walk(t, x); err != nil {
					return nil, err
				}
			}
		case *Conv2D, *Dense:
			y, err := l.Forward(x, true)
			if err != nil {
				return nil, err
			}
			grad := tensor.Randn(rng, 1, y.Shape()...)
			runs = append(runs, LayerRun{
				Name:  l.Name(),
				FLOPs: 3 * layerFLOPs(l, x.Dim(1), y.Dim(1)) * float64(x.Dim(0)),
				Run: func() {
					if _, err := l.Forward(x, true); err != nil {
						panic(err)
					}
					if _, err := l.Backward(grad); err != nil {
						panic(err)
					}
				},
			})
			return y, nil
		}
		return l.Forward(x, true)
	}
	_, err := walk(s, x)
	return runs, err
}
