package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail metric may use, a decade
// apart. The tail rule
// picks the highest of them that leaves at least minBeyond samples above it.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported.
const minBeyond = 10

// tailRule returns the highest ladder percentile with at least minBeyond of
// n samples beyond it, or 0 when even the median has fewer.
func tailRule(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// median returns the median of vs without modifying it.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies collects per-operation latencies in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

// summary returns the median and the workload's fixed tail percentile.
//
// The tail is the median, over consecutive segments of the samples, of each
// segment's tail percentile, where a segment is the fewest samples that
// leave minBeyond beyond that percentile. A burst of host noise then moves
// one segment's tail, not the result, while a cost every segment pays still
// shows. summary warns on stderr when the run is too short for the tail rule
// to allow the fixed percentile.
func (l *latencies) summary(tail float64) (p50, pTail float64) {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	if got := tailRule(len(s)); got < tail {
		logf("warning: %d samples support only p%g, below the fixed tail p%g", len(s), 100*got, 100*tail)
	}
	seg := segmentFor(tail)
	if len(l.ms) < 2*seg {
		return percentile(s, 0.5), percentile(s, tail)
	}
	var tails []float64
	for i := 0; i+seg <= len(l.ms); i += seg {
		part := append([]float64(nil), l.ms[i:i+seg]...)
		sort.Float64s(part)
		tails = append(tails, percentile(part, tail))
	}
	return percentile(s, 0.5), median(tails)
}

// segmentFor is the fewest samples for which tailRule allows percentile p.
func segmentFor(p float64) int {
	return int(math.Ceil(minBeyond/(1-p) - 1e-9))
}

// metricName is the charset a metric name must use: a letter or digit first,
// then at most 63 letters, digits, '_', '.' and '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitName is the charset of a metric unit.
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkMetricNames rejects a metric set whose names or units break the
// charset, so a typo fails the run instead of the consumer of its output.
func checkMetricNames(ms map[string]metric) error {
	for name, m := range ms {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q breaks the charset", name)
		}
		if !unitName.MatchString(m.Unit) {
			return fmt.Errorf("metric %q unit %q breaks the charset", name, m.Unit)
		}
	}
	return nil
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
