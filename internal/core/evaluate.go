package core

import (
	"fmt"

	"darnet/internal/bayes"
	"darnet/internal/metrics"
	"darnet/internal/nn"
	"darnet/internal/tensor"
)

// Evaluation holds every number the paper's Table 2 and Figure 5 report,
// plus the IMU-only comparisons from §5.2 and the naive-combiner ablations.
type Evaluation struct {
	// Table 2: Top-1 of the three architectures.
	CNNRNN float64 // DarNet: CNN + RNN via Bayesian Network
	CNNSVM float64 // CNN + SVM via Bayesian Network
	CNN    float64 // frame data only

	// §5.2: IMU-sequence-only accuracies (3-class).
	RNNOnly float64
	SVMOnly float64

	// Figure 5 confusion matrices.
	ConfusionCNNRNN *metrics.ConfusionMatrix
	ConfusionCNNSVM *metrics.ConfusionMatrix
	ConfusionCNN    *metrics.ConfusionMatrix

	// Ablations: naive combiners instead of the Bayesian Network.
	ProductCombine float64
	AverageCombine float64

	// Calibration: expected calibration error of the frame CNN's and the
	// fused CNN+RNN posterior's probabilities (10 bins). Calibration governs
	// how well naive probability fusion can compete with the learned
	// Bayesian Network combiner.
	CNNECE   float64
	FusedECE float64
}

// Evaluate runs every model and ensemble on the test set.
func (e *Engine) Evaluate(test *Data, classNames []string) (*Evaluation, error) {
	if err := test.Validate(); err != nil {
		return nil, err
	}
	if len(test.Windows) == 0 {
		return nil, fmt.Errorf("core: evaluation requires the IMU stream")
	}
	if len(classNames) != e.Classes {
		return nil, fmt.Errorf("core: %d class names for %d classes", len(classNames), e.Classes)
	}
	n := test.Len()

	// Per-modality probability distributions.
	cnnProbs, err := nn.PredictProbs(e.CNN, test.Frames)
	if err != nil {
		return nil, fmt.Errorf("core: cnn test probs: %w", err)
	}
	rnnProbs := make([][]float64, n)
	svmProbs := make([][]float64, n)
	for i, w := range test.Windows {
		rp, err := e.RNN.PredictProbs(e.IMUStats.Normalize(w))
		if err != nil {
			return nil, fmt.Errorf("core: rnn test probs %d: %w", i, err)
		}
		rnnProbs[i] = rp
		sp, err := e.SVM.PredictProbs(e.IMUStats.NormalizeFlat(w))
		if err != nil {
			return nil, fmt.Errorf("core: svm test probs %d: %w", i, err)
		}
		svmProbs[i] = sp
	}

	ev := &Evaluation{}
	cmCNN, err := metrics.NewConfusionMatrix(classNames)
	if err != nil {
		return nil, err
	}
	cmRNN, err := metrics.NewConfusionMatrix(classNames)
	if err != nil {
		return nil, err
	}
	cmSVM, err := metrics.NewConfusionMatrix(classNames)
	if err != nil {
		return nil, err
	}

	cnnProbRows := make([][]float64, n)
	fusedProbRows := make([][]float64, n)
	var prodHits, avgHits, rnnOnlyHits, svmOnlyHits int
	for i := 0; i < n; i++ {
		cp := cnnProbs.Row(i)
		y := test.Labels[i]
		cnnProbRows[i] = append([]float64(nil), cp...)

		cnnPred := bayes.ArgMax(cp)
		if err := cmCNN.Observe(y, cnnPred); err != nil {
			return nil, err
		}

		bnRNNPost, err := e.BNWithRNN.Combine(cp, rnnProbs[i])
		if err != nil {
			return nil, fmt.Errorf("core: combine CNN+RNN %d: %w", i, err)
		}
		fusedProbRows[i] = bnRNNPost
		if err := cmRNN.Observe(y, bayes.ArgMax(bnRNNPost)); err != nil {
			return nil, err
		}

		bnSVMPost, err := e.BNWithSVM.Combine(cp, svmProbs[i])
		if err != nil {
			return nil, fmt.Errorf("core: combine CNN+SVM %d: %w", i, err)
		}
		if err := cmSVM.Observe(y, bayes.ArgMax(bnSVMPost)); err != nil {
			return nil, err
		}

		prod, err := bayes.ProductCombine(cp, rnnProbs[i], e.ClassMap)
		if err != nil {
			return nil, err
		}
		if bayes.ArgMax(prod) == y {
			prodHits++
		}
		avg, err := bayes.AverageCombine(cp, rnnProbs[i], e.ClassMap)
		if err != nil {
			return nil, err
		}
		if bayes.ArgMax(avg) == y {
			avgHits++
		}

		if bayes.ArgMax(rnnProbs[i]) == test.IMULabels[i] {
			rnnOnlyHits++
		}
		if bayes.ArgMax(svmProbs[i]) == test.IMULabels[i] {
			svmOnlyHits++
		}
	}

	ev.CNN = cmCNN.Top1()
	ev.CNNRNN = cmRNN.Top1()
	ev.CNNSVM = cmSVM.Top1()
	ev.ConfusionCNN = cmCNN
	ev.ConfusionCNNRNN = cmRNN
	ev.ConfusionCNNSVM = cmSVM
	ev.ProductCombine = float64(prodHits) / float64(n)
	ev.AverageCombine = float64(avgHits) / float64(n)
	ev.RNNOnly = float64(rnnOnlyHits) / float64(n)
	ev.SVMOnly = float64(svmOnlyHits) / float64(n)
	if ev.CNNECE, err = metrics.ECE(cnnProbRows, test.Labels, 10); err != nil {
		return nil, err
	}
	if ev.FusedECE, err = metrics.ECE(fusedProbRows, test.Labels, 10); err != nil {
		return nil, err
	}
	return ev, nil
}

// EvaluateCNNOnly evaluates only the frame CNN (used by image-only datasets
// like the 18-class privacy set).
func EvaluateCNNOnly(cnn *nn.Sequential, frames *tensor.Tensor, labels []int) (float64, error) {
	pred, err := nn.PredictClasses(cnn, frames)
	if err != nil {
		return 0, err
	}
	return nn.Accuracy(pred, labels)
}
