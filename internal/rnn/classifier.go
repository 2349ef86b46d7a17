package rnn

import (
	"fmt"
	"math/rand"
	"sync"

	"darnet/internal/nn"
	"darnet/internal/tensor"
)

// seqLayer is one recurrent stage mapping a (T, in) sequence to a (T, out)
// sequence. forwardSeq is the training pass and returns an opaque cache
// consumed by backwardSeq; inferSeq is the inference pass, which writes the
// (T, out) rows into out and keeps its scratch in ws.
type seqLayer interface {
	Name() string
	Params() []*nn.Param
	OutWidth() int
	in() int
	hidden() int
	forwardSeq(x *tensor.Tensor) (*tensor.Tensor, any, error)
	backwardSeq(cache any, grad *tensor.Tensor) (*tensor.Tensor, error)
	inferSeq(ws *Workspace, x []float64, T int, out []float64)
}

// BiLSTM as a seqLayer.
func (b *BiLSTM) forwardSeq(x *tensor.Tensor) (*tensor.Tensor, any, error) {
	y, c, err := b.Forward(x)
	return y, c, err
}

func (b *BiLSTM) backwardSeq(cache any, grad *tensor.Tensor) (*tensor.Tensor, error) {
	bc, ok := cache.(*biCache)
	if !ok {
		return nil, fmt.Errorf("rnn: %s received foreign cache", b.name)
	}
	return b.Backward(bc, grad)
}

func (b *BiLSTM) in() int     { return b.fwd.in }
func (b *BiLSTM) hidden() int { return b.fwd.hidden }

var _ seqLayer = (*BiLSTM)(nil)

// UniLSTM is a forward-time-only LSTM stage, used by the ablation comparing
// bidirectional against unidirectional stacks.
type UniLSTM struct {
	name string
	cell *LSTMCell
}

// NewUniLSTM returns a unidirectional LSTM layer mapping (T, in) to (T, hidden).
func NewUniLSTM(name string, rng *rand.Rand, in, hidden int) *UniLSTM {
	return &UniLSTM{name: name, cell: NewLSTMCell(name+".cell", rng, in, hidden)}
}

// Name returns the layer's name.
func (u *UniLSTM) Name() string { return u.name }

// Params returns the layer's trainable parameters.
func (u *UniLSTM) Params() []*nn.Param { return u.cell.Params() }

// OutWidth returns the per-step output width.
func (u *UniLSTM) OutWidth() int { return u.cell.hidden }

func (u *UniLSTM) forwardSeq(x *tensor.Tensor) (*tensor.Tensor, any, error) {
	y, c, err := u.cell.Forward(x)
	return y, c, err
}

func (u *UniLSTM) backwardSeq(cache any, grad *tensor.Tensor) (*tensor.Tensor, error) {
	cc, ok := cache.(*cellCache)
	if !ok {
		return nil, fmt.Errorf("rnn: %s received foreign cache", u.name)
	}
	return u.cell.Backward(cc, grad)
}

func (u *UniLSTM) in() int     { return u.cell.in }
func (u *UniLSTM) hidden() int { return u.cell.hidden }

var _ seqLayer = (*UniLSTM)(nil)

// Classifier is the paper's IMU-sequence architecture: a stack of
// bidirectional LSTM layers ("deep": each layer's output feeds the next)
// followed by mean pooling over time and a softmax classification head.
type Classifier struct {
	name    string
	layers  []seqLayer
	head    *nn.Dense
	classes int

	workspaces sync.Pool // *Workspace, for the pooled inference entry points
}

// Config describes a deep (Bi)LSTM classifier.
type Config struct {
	Input   int // per-step feature width
	Hidden  int // hidden units per direction (paper: 64)
	Layers  int // stacked recurrent layers (paper: 2)
	Classes int
	// Unidirectional uses forward-time-only cells (ablation); the default
	// (false) is the paper's bidirectional configuration.
	Unidirectional bool
}

// NewClassifier constructs the deep (Bi)LSTM classifier.
func NewClassifier(name string, rng *rand.Rand, cfg Config) (*Classifier, error) {
	if cfg.Input <= 0 || cfg.Hidden <= 0 || cfg.Layers <= 0 || cfg.Classes <= 1 {
		return nil, fmt.Errorf("rnn: invalid classifier config %+v", cfg)
	}
	c := &Classifier{name: name, classes: cfg.Classes}
	in := cfg.Input
	for i := 0; i < cfg.Layers; i++ {
		var l seqLayer
		if cfg.Unidirectional {
			l = NewUniLSTM(fmt.Sprintf("%s.lstm%d", name, i), rng, in, cfg.Hidden)
		} else {
			l = NewBiLSTM(fmt.Sprintf("%s.bilstm%d", name, i), rng, in, cfg.Hidden)
		}
		c.layers = append(c.layers, l)
		in = l.OutWidth()
	}
	c.head = nn.NewDense(name+".head", rng, in, cfg.Classes)
	return c, nil
}

// Name returns the classifier's name.
func (c *Classifier) Name() string { return c.name }

// Classes returns the number of output classes.
func (c *Classifier) Classes() int { return c.classes }

// Params returns all trainable parameters.
func (c *Classifier) Params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range c.layers {
		ps = append(ps, l.Params()...)
	}
	return append(ps, c.head.Params()...)
}

// NumParams returns the total scalar parameter count.
func (c *Classifier) NumParams() int {
	n := 0
	for _, p := range c.Params() {
		n += p.Value.Size()
	}
	return n
}

// ZeroGrad clears all parameter gradients.
func (c *Classifier) ZeroGrad() {
	for _, p := range c.Params() {
		p.ZeroGrad()
	}
}

// seqCache holds everything needed to backpropagate one sequence.
type seqCache struct {
	layerCaches []any
	steps       int
}

// forward is the training pass: it computes logits (1, classes) for one
// (T, input) sequence and the cache backward needs. Inference goes through
// Infer instead.
func (c *Classifier) forward(seq *tensor.Tensor) (*tensor.Tensor, *seqCache, error) {
	x := seq
	cache := &seqCache{steps: seq.Dim(0)}
	for _, l := range c.layers {
		y, lc, err := l.forwardSeq(x)
		if err != nil {
			return nil, nil, err
		}
		cache.layerCaches = append(cache.layerCaches, lc)
		x = y
	}
	// Mean-pool over time so variable-length sequences are supported and
	// every step contributes to the gradient.
	T, W := x.Dim(0), x.Dim(1)
	pooled := tensor.New(1, W)
	prow := pooled.Row(0)
	for t := 0; t < T; t++ {
		row := x.Row(t)
		for j, v := range row {
			prow[j] += v
		}
	}
	inv := 1.0 / float64(T)
	for j := range prow {
		prow[j] *= inv
	}
	logits, err := c.head.Forward(pooled, true)
	if err != nil {
		return nil, nil, err
	}
	return logits, cache, nil
}

// backward pushes dL/dLogits (1, classes) through the cached forward pass,
// accumulating parameter gradients.
func (c *Classifier) backward(cache *seqCache, grad *tensor.Tensor) error {
	dPooled, err := c.head.Backward(grad)
	if err != nil {
		return err
	}
	// Un-pool: every step receives grad/T.
	T := cache.steps
	W := dPooled.Dim(1)
	g := tensor.New(T, W)
	inv := 1.0 / float64(T)
	src := dPooled.Row(0)
	for t := 0; t < T; t++ {
		row := g.Row(t)
		for j, v := range src {
			row[j] = v * inv
		}
	}
	for i := len(c.layers) - 1; i >= 0; i-- {
		g, err = c.layers[i].backwardSeq(cache.layerCaches[i], g)
		if err != nil {
			return err
		}
	}
	return nil
}

// pooled runs fn on a workspace from the classifier's pool that fits seq,
// so concurrent callers share the weights and nothing else.
func (c *Classifier) pooled(seq *tensor.Tensor, fn func(ws *Workspace) error) error {
	steps := 1 // a malformed seq gets a workspace and is refused by inferLogits
	if seq.Dims() == 2 {
		steps = max(steps, seq.Dim(0))
	}
	ws, err := c.getWorkspace(steps)
	if err != nil {
		return err
	}
	defer c.workspaces.Put(ws)
	return fn(ws)
}

// Logits returns inference-mode logits (1, classes) for one sequence.
func (c *Classifier) Logits(seq *tensor.Tensor) (*tensor.Tensor, error) {
	out := tensor.New(1, c.classes)
	err := c.pooled(seq, func(ws *Workspace) error {
		logits, err := c.inferLogits(ws, seq)
		copy(out.Data(), logits)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PredictProbs returns softmax class probabilities for one sequence as a
// length-classes slice.
func (c *Classifier) PredictProbs(seq *tensor.Tensor) ([]float64, error) {
	probs := make([]float64, c.classes)
	err := c.pooled(seq, func(ws *Workspace) error {
		p, err := c.Infer(ws, seq)
		copy(probs, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return probs, nil
}

// Predict returns the arg-max class for one sequence.
func (c *Classifier) Predict(seq *tensor.Tensor) (int, error) {
	logits, err := c.Logits(seq)
	if err != nil {
		return 0, err
	}
	return logits.ArgMax(), nil
}

// TrainConfig controls sequence-classifier training.
type TrainConfig struct {
	Epochs    int
	BatchSize int     // sequences per gradient step
	ClipNorm  float64 // 0 disables clipping
	OnEpoch   func(epoch int, loss float64) bool
}

// Train runs mini-batch training over sequences (each (T, input)) with
// integer labels, accumulating gradients across each batch before stepping.
// It returns per-epoch mean losses.
func (c *Classifier) Train(opt nn.Optimizer, rng *rand.Rand, seqs []*tensor.Tensor, labels []int, cfg TrainConfig) ([]float64, error) {
	if len(seqs) != len(labels) {
		return nil, fmt.Errorf("rnn: %d sequences for %d labels", len(seqs), len(labels))
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("rnn: no training sequences")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	n := len(seqs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var losses []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		total, count := 0.0, 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, n)
			c.ZeroGrad()
			batchLoss := 0.0
			for _, idx := range order[start:end] {
				logits, cache, err := c.forward(seqs[idx])
				if err != nil {
					return losses, fmt.Errorf("rnn: train forward: %w", err)
				}
				loss, _, grad, err := nn.CrossEntropy(logits, []int{labels[idx]})
				if err != nil {
					return losses, fmt.Errorf("rnn: train loss: %w", err)
				}
				if err := c.backward(cache, grad); err != nil {
					return losses, fmt.Errorf("rnn: train backward: %w", err)
				}
				batchLoss += loss
			}
			bs := end - start
			// Average accumulated gradients over the batch.
			scale := 1.0 / float64(bs)
			for _, p := range c.Params() {
				p.Grad.ScaleInPlace(scale)
			}
			if cfg.ClipNorm > 0 {
				if _, err := nn.ClipGradNorm(c.Params(), cfg.ClipNorm); err != nil {
					return losses, err
				}
			}
			opt.Step(c.Params())
			total += batchLoss / float64(bs)
			count++
		}
		mean := total / float64(count)
		losses = append(losses, mean)
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch, mean) {
			break
		}
	}
	return losses, nil
}

// Evaluate returns Top-1 accuracy over a labelled sequence set.
func (c *Classifier) Evaluate(seqs []*tensor.Tensor, labels []int) (float64, error) {
	if len(seqs) != len(labels) {
		return 0, fmt.Errorf("rnn: %d sequences for %d labels", len(seqs), len(labels))
	}
	if len(seqs) == 0 {
		return 0, nil
	}
	hits := 0
	for i, s := range seqs {
		p, err := c.Predict(s)
		if err != nil {
			return 0, err
		}
		if p == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(seqs)), nil
}
