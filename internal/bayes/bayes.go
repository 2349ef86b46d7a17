// Package bayes implements DarNet's ensemble combiner: one small Bayesian
// Network per class, each with N parent nodes (one per modality's
// prediction) and a binary child node ("the behaviour is this class"). The
// engine uses two parents: the CNN's frame prediction and the RNN's or SVM's
// IMU-sequence prediction; more parents realize the paper's "extensible to
// adding more modalities" claim (§6). Conditional probability tables are
// estimated from true-positive counts on training data (paper §4.2,
// "Ensemble Learning"), and at inference time the parents' probability
// distributions are marginalized through the CPTs to score every class.
//
// The parents may range over different class sets — in DarNet the CNN sees
// all six driving behaviours while the IMU models see only the three
// phone-related ones — which is exactly why a learned combiner is needed
// instead of a naive per-class product.
package bayes

import (
	"fmt"
	"math"
)

// maxTable bounds the CPT, classes × Π arities cells, so a combiner stays
// the small per-deployment network it models (a handful of devices) and a
// corrupt snapshot cannot request an unbounded allocation.
const maxTable = 1 << 20

// Combiner fuses categorical predictions from len(arities) parents into a
// distribution over classes classes, where parent p has arities[p] outcomes.
type Combiner struct {
	classes int
	arities []int
	// strides[p] is parent p's step in the joint parent index, which runs
	// over every parent's outcome with the last parent fastest.
	strides []int
	// cpt[k*cells+j] = P(class = k | joint parent outcome j), where cells =
	// Π arities.
	cpt    []float64
	fitted bool
}

// NewCombiner returns an unfitted combiner over parents with the given
// outcome arities.
func NewCombiner(classes int, arities ...int) (*Combiner, error) {
	size, err := tableSize(classes, arities)
	if err != nil {
		return nil, err
	}
	return newCombiner(classes, arities, make([]float64, size)), nil
}

// tableSize validates the dimensions and returns classes × Π arities.
func tableSize(classes int, arities []int) (int, error) {
	if classes < 2 {
		return 0, fmt.Errorf("bayes: need at least 2 classes, got %d", classes)
	}
	if len(arities) == 0 {
		return 0, fmt.Errorf("bayes: need at least one parent")
	}
	size := classes
	for p, a := range arities {
		if a < 1 {
			return 0, fmt.Errorf("bayes: parent %d has arity %d", p, a)
		}
		if size > maxTable/a {
			return 0, fmt.Errorf("bayes: CPT of %d classes over arities %v exceeds %d cells", classes, arities, maxTable)
		}
		size *= a
	}
	return size, nil
}

// newCombiner wraps a table of tableSize(classes, arities) cells.
func newCombiner(classes int, arities []int, cpt []float64) *Combiner {
	strides := make([]int, len(arities))
	s := 1
	for p := len(arities) - 1; p >= 0; p-- {
		strides[p] = s
		s *= arities[p]
	}
	return &Combiner{classes: classes, arities: append([]int(nil), arities...), strides: strides, cpt: cpt}
}

// Classes returns the number of output classes.
func (c *Combiner) Classes() int { return c.classes }

// Fit estimates the CPTs from aligned training observations: trueLabels[i] is
// the ground-truth class and preds[p][i] parent p's hard (arg-max)
// prediction for sample i. smoothing is the additive Laplace pseudo-count
// applied to every (class, joint parent outcome) cell; it must be positive so
// unobserved parent combinations yield a uniform rather than undefined
// conditional.
func (c *Combiner) Fit(trueLabels []int, preds [][]int, smoothing float64) error {
	if len(preds) != len(c.arities) {
		return fmt.Errorf("bayes: %d prediction streams for %d parents", len(preds), len(c.arities))
	}
	n := len(trueLabels)
	for p, stream := range preds {
		if len(stream) != n {
			return fmt.Errorf("bayes: misaligned observations: parent %d has %d predictions for %d labels", p, len(stream), n)
		}
	}
	if n == 0 {
		return fmt.Errorf("bayes: cannot fit on zero observations")
	}
	if smoothing <= 0 {
		return fmt.Errorf("bayes: smoothing must be positive, got %g", smoothing)
	}
	cells := len(c.cpt) / c.classes
	counts := make([]float64, len(c.cpt))
	for i := range counts {
		counts[i] = smoothing
	}
	for i, y := range trueLabels {
		if y < 0 || y >= c.classes {
			return fmt.Errorf("bayes: label %d of sample %d out of range [0,%d)", y, i, c.classes)
		}
		j := 0
		for p, stream := range preds {
			o := stream[i]
			if o < 0 || o >= c.arities[p] {
				return fmt.Errorf("bayes: parent %d outcome %d of sample %d out of range [0,%d)", p, o, i, c.arities[p])
			}
			j += o * c.strides[p]
		}
		counts[y*cells+j]++
	}
	// Normalize over classes within each joint parent outcome j:
	// P(class | j) = count(class, j) / Σ_k count(k, j).
	for j := 0; j < cells; j++ {
		total := 0.0
		for k := 0; k < c.classes; k++ {
			total += counts[k*cells+j]
		}
		for k := 0; k < c.classes; k++ {
			c.cpt[k*cells+j] = counts[k*cells+j] / total
		}
	}
	c.fitted = true
	return nil
}

// Combine marginalizes the parents' probability distributions, one per
// parent, through the CPTs and returns a normalized posterior over classes:
//
//	P(class = k) ∝ Σ_j Π_p probs[p][o_p(j)] · P(class = k | j).
func (c *Combiner) Combine(probs ...[]float64) ([]float64, error) {
	if !c.fitted {
		return nil, fmt.Errorf("bayes: combiner not fitted")
	}
	if len(probs) != len(c.arities) {
		return nil, fmt.Errorf("bayes: %d distributions for %d parents", len(probs), len(c.arities))
	}
	for p, dist := range probs {
		if len(dist) != c.arities[p] {
			return nil, fmt.Errorf("bayes: parent %d distribution has %d entries, want %d", p, len(dist), c.arities[p])
		}
	}
	// Walk the joint index a row at a time: one weight per outcome of every
	// parent but the last, then a contiguous run over the last parent. Each
	// class sums (w·p_last)·cpt in joint-index order, skipping zero-weight
	// rows; the engine's reported accuracies depend on that order.
	last := len(probs) - 1
	pLast := probs[last]
	cells := len(c.cpt) / c.classes
	post := make([]float64, c.classes)
	for j := 0; j < cells; j += len(pLast) {
		w := 1.0
		for p, dist := range probs[:last] {
			w *= dist[j/c.strides[p]%c.arities[p]]
		}
		if w == 0 {
			continue
		}
		for k := range post {
			row := c.cpt[k*cells+j:]
			row = row[:len(pLast)]
			s := post[k]
			for b, pb := range pLast {
				s += w * pb * row[b]
			}
			post[k] = s
		}
	}
	total := 0.0
	for _, v := range post {
		total += v
	}
	if total <= 0 || math.IsNaN(total) {
		return nil, fmt.Errorf("bayes: degenerate posterior (total %g)", total)
	}
	for k := range post {
		post[k] /= total
	}
	return post, nil
}

// Predict returns the arg-max class of Combine(probs...).
func (c *Combiner) Predict(probs ...[]float64) (int, error) {
	post, err := c.Combine(probs...)
	if err != nil {
		return 0, err
	}
	return ArgMax(post), nil
}

// --- Naive combiners for the ablation bench ---------------------------------

// ClassMap projects the full class space onto parent B's class space; entry k
// is the parent-B outcome corresponding to full class k.
type ClassMap []int

// Validate checks that the mapping covers classes classes and targets arityB.
func (m ClassMap) Validate(classes, arityB int) error {
	if len(m) != classes {
		return fmt.Errorf("bayes: class map has %d entries for %d classes", len(m), classes)
	}
	for k, b := range m {
		if b < 0 || b >= arityB {
			return fmt.Errorf("bayes: class map entry %d targets %d, outside [0,%d)", k, b, arityB)
		}
	}
	return nil
}

// ProductCombine is the naive alternative the BN is ablated against:
// score(k) = pA(k) · pB(map(k)), renormalized.
func ProductCombine(pA, pB []float64, m ClassMap) ([]float64, error) {
	if err := m.Validate(len(pA), len(pB)); err != nil {
		return nil, err
	}
	out := make([]float64, len(pA))
	total := 0.0
	for k := range out {
		out[k] = pA[k] * pB[m[k]]
		total += out[k]
	}
	if total <= 0 {
		// Degenerate overlap: fall back to parent A alone.
		copy(out, pA)
		return out, nil
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// AverageCombine is the second naive alternative:
// score(k) = (pA(k) + pB(map(k))/|map⁻¹(map(k))|) / 2, renormalized. The
// division spreads parent B's mass evenly over the full classes that share a
// projected outcome.
func AverageCombine(pA, pB []float64, m ClassMap) ([]float64, error) {
	if err := m.Validate(len(pA), len(pB)); err != nil {
		return nil, err
	}
	fan := make([]int, len(pB))
	for _, b := range m {
		fan[b]++
	}
	out := make([]float64, len(pA))
	total := 0.0
	for k := range out {
		out[k] = 0.5*pA[k] + 0.5*pB[m[k]]/float64(fan[m[k]])
		total += out[k]
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// ArgMax returns the index of the largest probability.
func ArgMax(p []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range p {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
