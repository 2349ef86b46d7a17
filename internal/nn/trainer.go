package nn

import (
	"fmt"
	"math/rand"

	"darnet/internal/tensor"
)

// TrainConfig controls a supervised classification training run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	ClipNorm  float64 // 0 disables gradient clipping
	// LRStepEvery and LRStepFactor implement step decay on optimizers that
	// expose a learning rate (SGD, Adam): every LRStepEvery epochs the rate
	// is multiplied by LRStepFactor. Disabled when LRStepEvery is 0.
	LRStepEvery  int
	LRStepFactor float64
	// OnEpoch, when non-nil, is invoked after each epoch with the epoch
	// index and mean training loss; returning false stops training early.
	OnEpoch func(epoch int, loss float64) bool
}

// stepLR applies TrainConfig's step decay to the optimizer at the start of
// the given epoch.
func (cfg TrainConfig) stepLR(opt Optimizer, epoch int) {
	if cfg.LRStepEvery <= 0 || cfg.LRStepFactor <= 0 || epoch == 0 || epoch%cfg.LRStepEvery != 0 {
		return
	}
	switch o := opt.(type) {
	case *SGD:
		o.LR *= cfg.LRStepFactor
	case *Adam:
		o.LR *= cfg.LRStepFactor
	}
}

// EpochResult summarizes one training epoch.
type EpochResult struct {
	Epoch int
	Loss  float64
}

// TrainClassifier runs mini-batch softmax cross-entropy training of net on
// (x, labels) using opt, shuffling with rng each epoch. It returns per-epoch
// mean losses.
func TrainClassifier(net *Sequential, opt Optimizer, rng *rand.Rand, x *tensor.Tensor, labels []int, cfg TrainConfig) ([]EpochResult, error) {
	n := x.Dim(0)
	if len(labels) != n {
		return nil, fmt.Errorf("nn: train: %d labels for %d samples", len(labels), n)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	width := x.Dim(1)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	var results []EpochResult
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		cfg.stepLR(opt, epoch)
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss, batches := 0.0, 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, n)
			bs := end - start
			bx := tensor.New(bs, width)
			by := make([]int, bs)
			for i := 0; i < bs; i++ {
				src := order[start+i]
				copy(bx.Row(i), x.Row(src))
				by[i] = labels[src]
			}
			net.ZeroGrad()
			logits, err := net.Forward(bx, true)
			if err != nil {
				return results, fmt.Errorf("nn: train forward: %w", err)
			}
			loss, _, grad, err := CrossEntropy(logits, by)
			if err != nil {
				return results, fmt.Errorf("nn: train loss: %w", err)
			}
			if _, err := net.Backward(grad); err != nil {
				return results, fmt.Errorf("nn: train backward: %w", err)
			}
			if cfg.ClipNorm > 0 {
				if _, err := ClipGradNorm(net.Params(), cfg.ClipNorm); err != nil {
					return results, err
				}
			}
			opt.Step(net.Params())
			totalLoss += loss
			batches++
		}
		mean := totalLoss / float64(batches)
		results = append(results, EpochResult{Epoch: epoch, Loss: mean})
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch, mean) {
			break
		}
	}
	return results, nil
}

// PredictClasses returns the arg-max class per row of x under net, through
// Predict: one Infer per row on a pooled workspace.
func PredictClasses(net *Sequential, x *tensor.Tensor) ([]int, error) {
	logits, err := net.Predict(x)
	if err != nil {
		return nil, fmt.Errorf("nn: predict: %w", err)
	}
	return logits.ArgMaxRow(), nil
}

// PredictProbs returns row-wise softmax probabilities for x under net,
// through Predict: one Infer per row on a pooled workspace, so concurrent
// callers share only the weights.
func PredictProbs(net *Sequential, x *tensor.Tensor) (*tensor.Tensor, error) {
	probs, err := net.Predict(x)
	if err != nil {
		return nil, fmt.Errorf("nn: predict: %w", err)
	}
	for i := 0; i < probs.Dim(0); i++ {
		SoftmaxInto(probs.Row(i), probs.Row(i))
	}
	return probs, nil
}

// Accuracy returns the fraction of predictions equal to labels.
func Accuracy(pred, labels []int) (float64, error) {
	if len(pred) != len(labels) {
		return 0, fmt.Errorf("nn: accuracy: %d predictions for %d labels", len(pred), len(labels))
	}
	if len(pred) == 0 {
		return 0, nil
	}
	hits := 0
	for i, p := range pred {
		if p == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred)), nil
}
