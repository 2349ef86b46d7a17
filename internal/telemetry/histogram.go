package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// latencyBuckets are the default histogram bounds: 27 exponential buckets
// doubling from 1 µs to 64 s (1e-6 * 2^k seconds, k = 0..26), plus the
// implicit +Inf overflow. The span covers everything the pipeline produces —
// a tsdb insert is a few µs, a cold CNN forward is tens of ms, a full
// training epoch stays under a minute at bench scale — with ~2x relative
// quantile error, which is enough resolution to compare stages.
var latencyBuckets = func() []float64 {
	b := make([]float64, 27)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a fixed-bucket distribution of observations (typically
// latencies in seconds). Observation is lock-free: one atomic add into the
// bucket found by binary search over the static bounds, plus count/sum
// updates. Quantiles are estimated by linear interpolation inside the
// covering bucket.
type Histogram struct {
	name    string
	help    string
	bounds  []float64 // ascending upper bounds; final overflow bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = latencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds must ascend, got %v", name, bounds))
		}
	}
	return &Histogram{
		name:    name,
		help:    help,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records one observation (in the unit of the bucket bounds;
// seconds for latency histograms).
//
//lint:hotpath
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the overflow bucket catches
	// the rest.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
//
//lint:hotpath
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) by interpolating within
// the bucket containing the target rank. It returns 0 for an empty
// histogram; the overflow bucket reports its lower bound (the estimate is a
// floor there).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				return lower // overflow bucket: no upper bound to interpolate to
			}
			upper := h.bounds[i]
			frac := (rank - cum) / n
			return lower + frac*(upper-lower)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// HistogramBucket is one bucket's state: observations <= UpperBound
// (cumulative counts are computed by consumers).
type HistogramBucket struct {
	UpperBound float64 `json:"le"` // +Inf for the overflow bucket
	Count      int64   `json:"count"`
}

// HistogramSnapshot is one histogram's state at snapshot time, including
// the interpolated latency summary (p50/p90/p99).
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Help    string            `json:"help,omitempty"`
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Mean    float64           `json:"mean"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state. Non-empty buckets only.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:  h.name,
		Help:  h.help,
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: ub, Count: n})
	}
	return s
}
