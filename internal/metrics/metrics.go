// Package metrics computes and renders the evaluation artifacts the paper
// reports: Top-1 (Hit@1) classification percentages, confusion matrices
// (Figure 5), and per-class precision and recall.
package metrics

import (
	"fmt"
	"strings"
)

// ConfusionMatrix counts predictions: Counts[true][predicted].
type ConfusionMatrix struct {
	Labels []string
	Counts [][]int
}

// NewConfusionMatrix returns an empty matrix over the given class labels.
func NewConfusionMatrix(labels []string) (*ConfusionMatrix, error) {
	if len(labels) < 2 {
		return nil, fmt.Errorf("metrics: need at least 2 classes, got %d", len(labels))
	}
	counts := make([][]int, len(labels))
	for i := range counts {
		counts[i] = make([]int, len(labels))
	}
	return &ConfusionMatrix{Labels: append([]string(nil), labels...), Counts: counts}, nil
}

// Observe records one (true, predicted) pair.
func (m *ConfusionMatrix) Observe(trueClass, predicted int) error {
	k := len(m.Labels)
	if trueClass < 0 || trueClass >= k || predicted < 0 || predicted >= k {
		return fmt.Errorf("metrics: observation (%d, %d) outside [0,%d)", trueClass, predicted, k)
	}
	m.Counts[trueClass][predicted]++
	return nil
}

// Top1 returns the overall Hit@1 accuracy in [0, 1].
func (m *ConfusionMatrix) Top1() float64 {
	total, hits := 0, 0
	for i, row := range m.Counts {
		for j, c := range row {
			total += c
			if i == j {
				hits += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Rate returns the fraction of true-class i observations predicted as j.
func (m *ConfusionMatrix) Rate(i, j int) float64 {
	total := 0
	for _, c := range m.Counts[i] {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(m.Counts[i][j]) / float64(total)
}

// String renders the row-normalized matrix as a text table in the style of
// the paper's Figure 5.
func (m *ConfusionMatrix) String() string {
	var sb strings.Builder
	width := 8
	for _, l := range m.Labels {
		if len(l) > width {
			width = len(l)
		}
	}
	fmt.Fprintf(&sb, "%-*s", width+2, "true\\pred")
	for j := range m.Labels {
		fmt.Fprintf(&sb, "%8d", j+1)
	}
	sb.WriteByte('\n')
	for i, l := range m.Labels {
		fmt.Fprintf(&sb, "%-*s", width+2, l)
		for j := range m.Labels {
			fmt.Fprintf(&sb, "%8.3f", m.Rate(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatPercent renders a fraction as the paper's percentage style, e.g.
// "87.02%".
func FormatPercent(frac float64) string {
	return fmt.Sprintf("%.2f%%", frac*100)
}

// Precision returns, for predicted class j, the fraction of predictions that
// were correct (0 when the class was never predicted).
func (m *ConfusionMatrix) Precision(j int) float64 {
	predicted := 0
	for i := range m.Counts {
		predicted += m.Counts[i][j]
	}
	if predicted == 0 {
		return 0
	}
	return float64(m.Counts[j][j]) / float64(predicted)
}

// Recall returns, for true class i, the fraction of its observations that
// were predicted correctly (0 when the class was never observed).
func (m *ConfusionMatrix) Recall(i int) float64 {
	total := 0
	for _, c := range m.Counts[i] {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(m.Counts[i][i]) / float64(total)
}

// FalsePositives returns the number of observations of other classes that
// were predicted as class j — the quantity behind the paper's observation
// that "all three models output a high number of false positives when
// predicting normal driving".
func (m *ConfusionMatrix) FalsePositives(j int) int {
	n := 0
	for i := range m.Counts {
		if i != j {
			n += m.Counts[i][j]
		}
	}
	return n
}

// ECE computes the expected calibration error of a set of probabilistic
// predictions: predictions are binned by confidence (the max probability)
// into bins equal-width bins, and the weighted mean |accuracy − confidence|
// over bins is returned. Well-calibrated probabilities — which determine
// whether naive product fusion can compete with the learned Bayesian
// Network combiner — have ECE near 0.
func ECE(probs [][]float64, labels []int, bins int) (float64, error) {
	if len(probs) != len(labels) {
		return 0, fmt.Errorf("metrics: %d predictions for %d labels", len(probs), len(labels))
	}
	if bins < 1 {
		return 0, fmt.Errorf("metrics: need at least one bin, got %d", bins)
	}
	if len(probs) == 0 {
		return 0, nil
	}
	binConf := make([]float64, bins)
	binAcc := make([]float64, bins)
	binN := make([]int, bins)
	for i, p := range probs {
		if len(p) == 0 {
			return 0, fmt.Errorf("metrics: prediction %d is empty", i)
		}
		best, bi := p[0], 0
		for j, v := range p[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		b := int(best * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		binConf[b] += best
		if bi == labels[i] {
			binAcc[b]++
		}
		binN[b]++
	}
	ece := 0.0
	total := float64(len(probs))
	for b := 0; b < bins; b++ {
		if binN[b] == 0 {
			continue
		}
		n := float64(binN[b])
		diff := binAcc[b]/n - binConf[b]/n
		if diff < 0 {
			diff = -diff
		}
		ece += n / total * diff
	}
	return ece, nil
}
