package nn

import (
	"fmt"
	"math"

	"darnet/internal/tensor"
)

// Softmax writes row-wise softmax probabilities of logits into a new tensor.
// It is numerically stabilized by subtracting each row's maximum.
func Softmax(logits *tensor.Tensor) (*tensor.Tensor, error) {
	if logits.Dims() != 2 {
		return nil, fmt.Errorf("nn: softmax requires a 2-D tensor, got %d-D", logits.Dims())
	}
	n := logits.Dim(0)
	out := tensor.New(logits.Shape()...)
	for s := 0; s < n; s++ {
		SoftmaxInto(out.Row(s), logits.Row(s))
	}
	return out, nil
}

// CrossEntropy computes the fused softmax + cross-entropy loss for integer
// class labels. It returns the mean loss over the batch, the softmax
// probabilities, and dL/dLogits averaged over the batch — the gradient to
// feed into the network's Backward.
func CrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, probs, grad *tensor.Tensor, err error) {
	n := logits.Dim(0)
	if len(labels) != n {
		return 0, nil, nil, fmt.Errorf("nn: cross-entropy has %d labels for batch of %d", len(labels), n)
	}
	probs, err = Softmax(logits)
	if err != nil {
		return 0, nil, nil, err
	}
	classes := logits.Dim(1)
	grad = probs.Clone()
	inv := 1.0 / float64(n)
	for s := 0; s < n; s++ {
		y := labels[s]
		if y < 0 || y >= classes {
			return 0, nil, nil, fmt.Errorf("nn: label %d out of range [0,%d)", y, classes)
		}
		p := probs.At(s, y)
		loss -= math.Log(math.Max(p, 1e-15))
		grow := grad.Row(s)
		grow[y] -= 1
		for j := range grow {
			grow[j] *= inv
		}
	}
	return loss * inv, probs, grad, nil
}

// L2Distance computes the summed squared Euclidean distance between pred and
// target rows (the dCNN distillation loss of paper §4.3) averaged over the
// batch, plus dL/dPred.
func L2Distance(pred, target *tensor.Tensor) (loss float64, grad *tensor.Tensor, err error) {
	if !tensor.SameShape(pred, target) {
		return 0, nil, fmt.Errorf("nn: l2 shape mismatch %v vs %v", pred.Shape(), target.Shape())
	}
	n := pred.Dim(0)
	grad = tensor.New(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	inv := 1.0 / float64(n)
	for i := range pd {
		d := pd[i] - td[i]
		loss += d * d
		gd[i] = 2 * d * inv
	}
	return loss * inv, grad, nil
}

// DistillationLoss is the softened cross-entropy knowledge-distillation
// objective (Hinton et al.): the student's temperature-scaled softmax is
// matched against the teacher's temperature-scaled softmax,
//
//	L = -T² · mean_i Σ_j p_t(i,j) · log p_s(i,j),
//
// with the standard T² factor keeping gradient magnitudes comparable across
// temperatures. It returns the loss and dL/dStudentLogits. The paper's dCNN
// training uses plain L2 on output vectors (L2Distance); this softened
// objective is provided as the stronger modern alternative.
func DistillationLoss(studentLogits, teacherLogits *tensor.Tensor, temperature float64) (loss float64, grad *tensor.Tensor, err error) {
	if !tensor.SameShape(studentLogits, teacherLogits) {
		return 0, nil, fmt.Errorf("nn: distillation shape mismatch %v vs %v", studentLogits.Shape(), teacherLogits.Shape())
	}
	if temperature <= 0 {
		return 0, nil, fmt.Errorf("nn: distillation temperature must be positive, got %g", temperature)
	}
	n := studentLogits.Dim(0)
	scale := func(t *tensor.Tensor) *tensor.Tensor {
		return t.Clone().ScaleInPlace(1 / temperature)
	}
	ps, err := Softmax(scale(studentLogits))
	if err != nil {
		return 0, nil, err
	}
	pt, err := Softmax(scale(teacherLogits))
	if err != nil {
		return 0, nil, err
	}
	grad = tensor.New(studentLogits.Shape()...)
	inv := 1.0 / float64(n)
	t2 := temperature * temperature
	for i := 0; i < n; i++ {
		srow, trow, grow := ps.Row(i), pt.Row(i), grad.Row(i)
		for j := range srow {
			loss -= trow[j] * math.Log(math.Max(srow[j], 1e-15))
			// d/dz_s of softened CE: (p_s - p_t)/T, times the T² factor and
			// the batch mean.
			grow[j] = t2 * (srow[j] - trow[j]) / temperature * inv
		}
	}
	return loss * inv * t2, grad, nil
}
