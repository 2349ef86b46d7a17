package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestNewConfusionMatrixValidation(t *testing.T) {
	if _, err := NewConfusionMatrix([]string{"a"}); err == nil {
		t.Fatal("expected class-count error")
	}
}

func TestObserveAndTop1(t *testing.T) {
	m, err := NewConfusionMatrix([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	obs := [][2]int{{0, 0}, {0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 0}}
	for _, o := range obs {
		if err := m.Observe(o[0], o[1]); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(m.Top1()-4.0/6) > 1e-12 {
		t.Fatalf("top1 = %g", m.Top1())
	}
	if math.Abs(m.Recall(0)-2.0/3) > 1e-12 || m.Recall(1) != 1 || m.Recall(2) != 0.5 {
		t.Fatalf("recall = %g, %g, %g", m.Recall(0), m.Recall(1), m.Recall(2))
	}
	if math.Abs(m.Rate(2, 0)-0.5) > 1e-12 {
		t.Fatalf("rate(2,0) = %g", m.Rate(2, 0))
	}
}

func TestObserveValidation(t *testing.T) {
	m, _ := NewConfusionMatrix([]string{"a", "b"})
	if err := m.Observe(2, 0); err == nil {
		t.Fatal("expected range error")
	}
	if err := m.Observe(0, -1); err == nil {
		t.Fatal("expected range error")
	}
	if err := m.Observe(1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMatrixSafe(t *testing.T) {
	m, _ := NewConfusionMatrix([]string{"a", "b"})
	if m.Top1() != 0 {
		t.Fatal("empty top1 should be 0")
	}
	if m.Rate(0, 1) != 0 {
		t.Fatal("empty rate should be 0")
	}
	if m.Recall(0) != 0 || m.Recall(1) != 0 {
		t.Fatal("empty recall should be 0")
	}
}

func TestStringRendering(t *testing.T) {
	m, _ := NewConfusionMatrix([]string{"Normal", "Talking"})
	for _, o := range [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 1}} {
		_ = m.Observe(o[0], o[1])
	}
	s := m.String()
	if !strings.Contains(s, "Normal") || !strings.Contains(s, "0.500") || !strings.Contains(s, "1.000") {
		t.Fatalf("rendering missing content:\n%s", s)
	}
}

func TestFormatPercent(t *testing.T) {
	if got := FormatPercent(0.8702); got != "87.02%" {
		t.Fatalf("FormatPercent = %q", got)
	}
}

func TestPrecisionRecall(t *testing.T) {
	m, _ := NewConfusionMatrix([]string{"a", "b", "c"})
	// true a: 3 predicted a, 1 predicted b.
	// true b: 2 predicted b.
	// true c: 1 predicted a, 1 predicted c.
	for _, o := range [][2]int{{0, 0}, {0, 0}, {0, 0}, {0, 1}, {1, 1}, {1, 1}, {2, 0}, {2, 2}} {
		_ = m.Observe(o[0], o[1])
	}
	if p := m.Precision(0); math.Abs(p-3.0/4) > 1e-12 {
		t.Fatalf("precision(a) = %g", p)
	}
	if r := m.Recall(0); math.Abs(r-3.0/4) > 1e-12 {
		t.Fatalf("recall(a) = %g", r)
	}
	if p := m.Precision(1); math.Abs(p-2.0/3) > 1e-12 {
		t.Fatalf("precision(b) = %g", p)
	}
	if fp := m.FalsePositives(0); fp != 1 {
		t.Fatalf("false positives(a) = %d", fp)
	}
	if fp := m.FalsePositives(1); fp != 1 {
		t.Fatalf("false positives(b) = %d", fp)
	}
	// Unobserved/unpredicted classes are safe.
	empty, _ := NewConfusionMatrix([]string{"a", "b"})
	if empty.Precision(0) != 0 || empty.Recall(0) != 0 {
		t.Fatal("empty matrix should yield zeros")
	}
}

func TestECEPerfectCalibration(t *testing.T) {
	// Predictions at 100% confidence that are always right: ECE 0.
	probs := [][]float64{{1, 0}, {0, 1}, {1, 0}}
	labels := []int{0, 1, 0}
	ece, err := ECE(probs, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ece > 1e-12 {
		t.Fatalf("ECE = %g, want 0", ece)
	}
}

func TestECEOverconfidence(t *testing.T) {
	// Always 90% confident but only 50% correct: ECE = 0.4.
	probs := [][]float64{{0.9, 0.1}, {0.9, 0.1}, {0.9, 0.1}, {0.9, 0.1}}
	labels := []int{0, 1, 0, 1}
	ece, err := ECE(probs, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ece-0.4) > 1e-12 {
		t.Fatalf("ECE = %g, want 0.4", ece)
	}
}

func TestECEValidation(t *testing.T) {
	if _, err := ECE([][]float64{{1}}, []int{0, 1}, 10); err == nil {
		t.Fatal("expected alignment error")
	}
	if _, err := ECE(nil, nil, 0); err == nil {
		t.Fatal("expected bins error")
	}
	if _, err := ECE([][]float64{{}}, []int{0}, 5); err == nil {
		t.Fatal("expected empty-prediction error")
	}
	ece, err := ECE(nil, nil, 5)
	if err != nil || ece != 0 {
		t.Fatalf("empty set: %g, %v", ece, err)
	}
}
