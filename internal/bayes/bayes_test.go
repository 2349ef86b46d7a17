package bayes

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCombinerValidation(t *testing.T) {
	bad := [][3]int{{1, 2, 2}, {2, 0, 2}, {2, 2, 0}, {1 << 40, 1, 1}}
	for _, dims := range bad {
		if _, err := NewCombiner(dims[0], dims[1], dims[2]); err == nil {
			t.Fatalf("expected error for dims %v", dims)
		}
	}
	if _, err := NewCombiner(3, 3, 2); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestNewMultiCombinerValidation(t *testing.T) {
	// Validation over any number of parents, including joint spaces whose
	// size overflows an int.
	bad := []struct {
		classes int
		arities []int
	}{
		{1, []int{2}},
		{2, nil},
		{2, []int{2, 0}},
		{2, []int{1 << 12, 1 << 12}},
		{2, []int{1 << 40, 1 << 40, 1 << 40}},
	}
	for _, d := range bad {
		if _, err := NewCombiner(d.classes, d.arities...); err == nil {
			t.Fatalf("expected error for %d classes over arities %v", d.classes, d.arities)
		}
	}
	c, err := NewCombiner(3, 6, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Classes() != 3 || len(c.arities) != 3 || len(c.cpt) != 3*6*3*2 {
		t.Fatalf("dims wrong: %d classes, %d parents, %d CPT cells", c.Classes(), len(c.arities), len(c.cpt))
	}
}

func TestFitValidation(t *testing.T) {
	c, err := NewCombiner(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name   string
		labels []int
		preds  [][]int
		smooth float64
	}{
		{"misaligned", []int{0}, [][]int{{0, 1}, {0}}, 1},
		{"empty", nil, [][]int{nil, nil}, 1},
		{"smoothing", []int{0}, [][]int{{0}, {0}}, 0},
		{"label range", []int{5}, [][]int{{0}, {0}}, 1},
		{"parent-A range", []int{0}, [][]int{{5}, {0}}, 1},
		{"parent-B range", []int{0}, [][]int{{0}, {5}}, 1},
	}
	for _, b := range bad {
		if err := c.Fit(b.labels, b.preds, b.smooth); err == nil {
			t.Fatalf("expected %s error", b.name)
		}
	}
}

func TestMultiCombinerFitValidation(t *testing.T) {
	c, err := NewCombiner(2, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name   string
		labels []int
		preds  [][]int
		smooth float64
	}{
		{"stream count", []int{0}, [][]int{{0}, {0}}, 1},
		{"empty", nil, [][]int{nil, nil, nil}, 1},
		{"misaligned", []int{0}, [][]int{{0}, {0}, {0, 1}}, 1},
		{"smoothing", []int{0}, [][]int{{0}, {0}, {0}}, 0},
		{"label range", []int{9}, [][]int{{0}, {0}, {0}}, 1},
		{"third parent range", []int{0}, [][]int{{0}, {0}, {3}}, 1},
	}
	for _, b := range bad {
		if err := c.Fit(b.labels, b.preds, b.smooth); err == nil {
			t.Fatalf("expected %s error", b.name)
		}
	}
	if _, err := c.Combine([]float64{1, 0}, []float64{1, 0}, []float64{1, 0, 0}); err == nil {
		t.Fatal("expected not-fitted error")
	}
	if err := c.Fit([]int{0, 1}, [][]int{{0, 1}, {0, 1}, {0, 2}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Combine([]float64{1, 0}, []float64{1, 0}); err == nil {
		t.Fatal("expected distribution-count error")
	}
	if _, err := c.Combine([]float64{1, 0}, []float64{1, 0}, []float64{1, 0}); err == nil {
		t.Fatal("expected distribution-width error")
	}
}

func TestCombineBeforeFitErrors(t *testing.T) {
	c, _ := NewCombiner(2, 2, 2)
	if _, err := c.Combine([]float64{1, 0}, []float64{1, 0}); err == nil {
		t.Fatal("expected not-fitted error")
	}
}

// randomFit returns a combiner over 1–3 parents fitted on random
// observations.
func randomFit(rng *rand.Rand) (*Combiner, error) {
	classes := 2 + rng.Intn(3)
	arities := make([]int, 1+rng.Intn(3))
	for p := range arities {
		arities[p] = 1 + rng.Intn(4)
	}
	c, err := NewCombiner(classes, arities...)
	if err != nil {
		return nil, err
	}
	n := 20 + rng.Intn(100)
	labels := make([]int, n)
	preds := make([][]int, len(arities))
	for p := range preds {
		preds[p] = make([]int, n)
	}
	for i := range labels {
		labels[i] = rng.Intn(classes)
		for p := range preds {
			preds[p][i] = rng.Intn(arities[p])
		}
	}
	return c, c.Fit(labels, preds, 0.5)
}

// randomDists returns one random distribution per parent of c.
func randomDists(rng *rand.Rand, c *Combiner) [][]float64 {
	probs := make([][]float64, len(c.arities))
	for p := range probs {
		probs[p] = make([]float64, c.arities[p])
		total := 0.0
		for j := range probs[p] {
			probs[p][j] = rng.Float64()
			total += probs[p][j]
		}
		for j := range probs[p] {
			probs[p][j] /= total
		}
	}
	return probs
}

func TestCPTNormalizationProperty(t *testing.T) {
	// For any fitted combiner, Σ_k P(k | j) == 1 for every joint parent
	// outcome j.
	f := func(seed int64) bool {
		c, err := randomFit(rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		cells := len(c.cpt) / c.classes
		for j := 0; j < cells; j++ {
			sum := 0.0
			for k := 0; k < c.classes; k++ {
				sum += c.cpt[k*cells+j]
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCombinePosteriorIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, _ := NewCombiner(3, 3, 2)
	n := 200
	labels, pa, pb := make([]int, n), make([]int, n), make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(3)
		pa[i] = labels[i] // parent A is a perfect predictor
		pb[i] = rng.Intn(2)
	}
	if err := c.Fit(labels, [][]int{pa, pb}, 1); err != nil {
		t.Fatal(err)
	}
	post, err := c.Combine([]float64{0.2, 0.5, 0.3}, []float64{0.6, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range post {
		if p < 0 || p > 1 {
			t.Fatalf("posterior entry %g outside [0,1]", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posterior sums to %g", sum)
	}
}

func TestMultiCombinerPosteriorIsDistributionProperty(t *testing.T) {
	// Over 1–3 parents, every posterior is a probability distribution.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := randomFit(rng)
		if err != nil {
			return false
		}
		post, err := c.Combine(randomDists(rng, c)...)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range post {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineKeepsTwoParentSummationOrder(t *testing.T) {
	// Two parents fuse bit for bit as the reference sum below: per class,
	// Σ_a Σ_b (pA(a)·pB(b))·P(k | a, b), skipping pA(a) == 0. The engine's
	// reported accuracies depend on this order.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		c, err := randomFit(rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.arities) != 2 {
			continue
		}
		probs := randomDists(rng, c)
		pA, pB := probs[0], probs[1]
		if len(pA) > 1 {
			pA[rng.Intn(len(pA))] = 0
		}
		got, err := c.Combine(pA, pB)
		if err != nil {
			t.Fatal(err)
		}
		cells := len(c.cpt) / c.classes
		want := make([]float64, c.classes)
		total := 0.0
		for k := range want {
			s := 0.0
			for a, pa := range pA {
				if pa == 0 {
					continue
				}
				for b, pb := range pB {
					s += pa * pb * c.cpt[k*cells+a*len(pB)+b]
				}
			}
			want[k] = s
			total += s
		}
		for k := range want {
			if w := want[k] / total; math.Float64bits(got[k]) != math.Float64bits(w) {
				t.Fatalf("trial %d class %d: posterior %v, reference %v", trial, k, got[k], w)
			}
		}
	}
}

func TestCombineAllocatesOnlyThePosterior(t *testing.T) {
	c, _ := NewCombiner(6, 6, 3)
	if err := c.Fit([]int{0, 1, 2}, [][]int{{0, 1, 2}, {0, 1, 2}}, 1); err != nil {
		t.Fatal(err)
	}
	pA := []float64{0.5, 0.1, 0.1, 0.1, 0.1, 0.1}
	pB := []float64{0.6, 0.3, 0.1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Combine(pA, pB); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Combine allocates %v times per call, want 1", allocs)
	}
}

func TestCombinerLearnsPerfectParent(t *testing.T) {
	// Parent A is always right; parent B is noise. The fitted BN should
	// essentially follow parent A.
	rng := rand.New(rand.NewSource(2))
	c, _ := NewCombiner(3, 3, 3)
	n := 600
	labels, pa, pb := make([]int, n), make([]int, n), make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(3)
		pa[i] = labels[i]
		pb[i] = rng.Intn(3)
	}
	if err := c.Fit(labels, [][]int{pa, pb}, 0.1); err != nil {
		t.Fatal(err)
	}
	for want := 0; want < 3; want++ {
		pA := []float64{0.05, 0.05, 0.05}
		pA[want] = 0.9
		got, err := c.Predict(pA, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("BN should follow the perfect parent: got %d, want %d", got, want)
		}
	}
}

func TestCombinerResolvesAmbiguityWithSecondParent(t *testing.T) {
	// Parent A confuses classes 0 and 1 (predicts 0 for both); parent B
	// separates them perfectly. The BN must use B to disambiguate — the
	// paper's texting-vs-talking scenario in miniature.
	rng := rand.New(rand.NewSource(3))
	c, _ := NewCombiner(2, 2, 2)
	n := 400
	labels, pa, pb := make([]int, n), make([]int, n), make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(2)
		pa[i] = 0 // A is blind
		pb[i] = labels[i]
	}
	if err := c.Fit(labels, [][]int{pa, pb}, 0.1); err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict([]float64{1, 0}, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("BN ignored the informative parent: got %d, want 1", got)
	}
	got, err = c.Predict([]float64{1, 0}, []float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("BN ignored the informative parent: got %d, want 0", got)
	}
}

func TestCombinerThirdModalityHelps(t *testing.T) {
	// Parents A and B are blind between classes 0/1; parent C separates
	// them. Adding C as a third modality must resolve the ambiguity — the
	// paper's extensibility claim in miniature.
	rng := rand.New(rand.NewSource(2))
	n := 600
	labels, pa, pb, pc := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(2)
		pb[i] = rng.Intn(2) // noise
		pc[i] = labels[i]
	}
	c, err := NewCombiner(2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit(labels, [][]int{pa, pb, pc}, 0.1); err != nil {
		t.Fatal(err)
	}
	for want, pC := range [][]float64{{0.9, 0.1}, {0.1, 0.9}} {
		got, err := c.Predict([]float64{1, 0}, []float64{0.5, 0.5}, pC)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("third modality ignored: got %d, want %d", got, want)
		}
	}
}

func TestCombineDistributionValidation(t *testing.T) {
	c, _ := NewCombiner(2, 2, 2)
	if err := c.Fit([]int{0, 1}, [][]int{{0, 1}, {0, 1}}, 1); err != nil {
		t.Fatal(err)
	}
	bad := map[string][][]float64{
		"distribution count": {{1, 0}},
		"parent-A width":     {{1}, {1, 0}},
		"parent-B width":     {{1, 0}, {1}},
	}
	for name, probs := range bad {
		if _, err := c.Combine(probs...); err == nil {
			t.Fatalf("expected %s error", name)
		}
	}
}

// parentBlob has the field names of the two-parent snapshot format.
type parentBlob struct {
	Classes int
	ArityA  int
	ArityB  int
	CPT     []float64
	Fitted  bool
}

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestUnmarshalParentFormatBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, _ := NewCombiner(4, 4, 3)
	n := 300
	labels, pa, pb := make([]int, n), make([]int, n), make([]int, n)
	for i := range labels {
		labels[i], pa[i], pb[i] = rng.Intn(4), rng.Intn(4), rng.Intn(3)
	}
	if err := c.Fit(labels, [][]int{pa, pb}, 1); err != nil {
		t.Fatal(err)
	}
	var loaded Combiner
	if err := loaded.UnmarshalBinary(gobBytes(t, parentBlob{Classes: 4, ArityA: 4, ArityB: 3, CPT: c.cpt, Fitted: true})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		probs := randomDists(rng, c)
		want, err := c.Combine(probs...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Combine(probs...)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("query %d class %d: loaded posterior %v, want %v", i, k, got[k], want[k])
			}
		}
	}
}

func FuzzCombinerUnmarshalBinary(f *testing.F) {
	c, _ := NewCombiner(3, 3, 2)
	if err := c.Fit([]int{0, 1, 2, 1}, [][]int{{0, 1, 2, 2}, {0, 1, 1, 0}}, 0.5); err != nil {
		f.Fatal(err)
	}
	fitted, err := c.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fitted)
	f.Add(gobBytes(f, parentBlob{Classes: 3, ArityA: 3, ArityB: 2, CPT: c.cpt, Fitted: true}))
	// A few dozen bytes asking for a 2^40-cell table.
	f.Add(gobBytes(f, parentBlob{Classes: 1 << 40, ArityA: 1, ArityB: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var first Combiner
		if first.UnmarshalBinary(data) != nil {
			return
		}
		again, err := first.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var second Combiner
		if err := second.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if second.classes != first.classes || second.fitted != first.fitted ||
			len(second.arities) != len(first.arities) || len(second.cpt) != len(first.cpt) {
			t.Fatalf("re-decoded dims %d/%v/%d, want %d/%v/%d",
				second.classes, second.arities, len(second.cpt), first.classes, first.arities, len(first.cpt))
		}
		for p := range first.arities {
			if second.arities[p] != first.arities[p] {
				t.Fatalf("re-decoded arities %v, want %v", second.arities, first.arities)
			}
		}
		for i := range first.cpt {
			if math.Float64bits(second.cpt[i]) != math.Float64bits(first.cpt[i]) {
				t.Fatalf("re-decoded CPT cell %d = %v, want %v", i, second.cpt[i], first.cpt[i])
			}
		}
	})
}

func TestClassMapValidate(t *testing.T) {
	m := ClassMap{0, 1, 2, 0, 0, 0}
	if err := m.Validate(6, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(5, 3); err == nil {
		t.Fatal("expected length error")
	}
	if err := (ClassMap{0, 5}).Validate(2, 3); err == nil {
		t.Fatal("expected range error")
	}
}

func TestProductCombine(t *testing.T) {
	pA := []float64{0.5, 0.3, 0.2}
	pB := []float64{0.9, 0.1}
	m := ClassMap{0, 0, 1}
	out, err := ProductCombine(pA, pB, m)
	if err != nil {
		t.Fatal(err)
	}
	// Unnormalized: {0.45, 0.27, 0.02}; class 0 wins.
	if ArgMax(out) != 0 {
		t.Fatalf("product combine argmax = %d", ArgMax(out))
	}
	sum := 0.0
	for _, p := range out {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("product combine sums to %g", sum)
	}
}

func TestProductCombineDegenerateFallsBack(t *testing.T) {
	pA := []float64{1, 0}
	pB := []float64{0, 1}
	m := ClassMap{0, 1}
	out, err := ProductCombine(pA, pB, m)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("degenerate product should fall back to parent A, got %v", out)
	}
}

func TestAverageCombine(t *testing.T) {
	pA := []float64{0.25, 0.25, 0.25, 0.25}
	pB := []float64{0.7, 0.3}
	m := ClassMap{0, 0, 1, 1}
	out, err := AverageCombine(pA, pB, m)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range out {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("average combine sums to %g", sum)
	}
	// Classes mapping to B-outcome 0 should outrank those mapping to 1.
	if !(out[0] > out[2]) {
		t.Fatalf("average combine ordering wrong: %v", out)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{0.1, 0.7, 0.2}) != 1 {
		t.Fatal("ArgMax wrong")
	}
	if ArgMax([]float64{-3, -1, -2}) != 1 {
		t.Fatal("ArgMax wrong for negatives")
	}
}
