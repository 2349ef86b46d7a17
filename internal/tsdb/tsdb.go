// Package tsdb is the in-memory time-series store the centralized controller
// writes aligned sensor data into (the statsd role of paper §4.1). It keeps
// tagged series of timestamped points ordered by time and provides the two
// operations the controller's data normalization needs: linear-interpolation
// resampling onto a common grid and sliding moving-average smoothing.
package tsdb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"darnet/internal/telemetry"
)

// Store-level metrics: per-operation latency histograms, point throughput,
// and series cardinality (the gauge the prune policy watches).
var (
	hInsert  = telemetry.NewHistogram("darnet_tsdb_insert_seconds", "latency of one point insert", nil)
	hQuery   = telemetry.NewHistogram("darnet_tsdb_query_seconds", "latency of range/resample reads", nil)
	hPrune   = telemetry.NewHistogram("darnet_tsdb_prune_seconds", "latency of one prune sweep", nil)
	mPoints  = telemetry.NewCounter("darnet_tsdb_points_inserted_total", "points inserted across all series")
	mPruned  = telemetry.NewCounter("darnet_tsdb_points_pruned_total", "points dropped by prune sweeps")
	gSeries  = telemetry.NewGauge("darnet_tsdb_series", "current series cardinality across all open databases")
	mQueries = telemetry.NewCounter("darnet_tsdb_queries_total", "range/resample reads served")
)

// Point is one timestamped scalar observation.
type Point struct {
	TimestampMillis int64
	Value           float64
}

// DB is a concurrency-safe collection of named series.
type DB struct {
	mu     sync.RWMutex
	series map[string][]Point
	logger InsertLogger
}

// New returns an empty database.
func New() *DB {
	return &DB{series: make(map[string][]Point)}
}

// InsertLogger observes every Insert before the in-memory mutation — the
// write-ahead seam internal/durable hangs its log on. LogInsert runs under
// the database write lock on the Insert hot path, so implementations must be
// allocation-free in steady state and must not call back into the DB.
type InsertLogger interface {
	LogInsert(series string, p Point)
}

// SetInsertLogger installs (or, with nil, removes) the write-ahead observer.
func (db *DB) SetInsertLogger(l InsertLogger) {
	db.mu.Lock()
	db.logger = l
	db.mu.Unlock()
}

// Insert adds a point to a series, keeping the series ordered by timestamp.
// Agents deliver batches out of order across the network, so insertion
// position is found by binary search — open-coded rather than sort.Search,
// which would capture pts and p in a closure on the per-point path.
//
// Equal-timestamp contract: a point whose timestamp already exists in the
// series is inserted after every existing point with that timestamp, so
// points with equal timestamps appear in arrival order. Replay depends on
// this: re-inserting a recovered sequence in its original order reproduces
// the exact pre-crash series, byte for byte.
//
//lint:hotpath
func (db *DB) Insert(series string, p Point) {
	start := time.Now()
	db.mu.Lock()
	existed := db.insertLocked(series, p)
	db.mu.Unlock()
	if !existed {
		gSeries.Add(1)
	}
	mPoints.Inc()
	hInsert.ObserveSince(start)
}

// insertLocked logs and places one point; the caller holds db.mu. It returns
// whether the series already existed so the callers can move the cardinality
// gauge outside the lock.
func (db *DB) insertLocked(series string, p Point) (existed bool) {
	if db.logger != nil {
		db.logger.LogInsert(series, p)
	}
	pts, existed := db.series[series]
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := (lo + hi) / 2
		if pts[mid].TimestampMillis > p.TimestampMillis {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	pts = append(pts, Point{})
	copy(pts[i+1:], pts[i:])
	pts[i] = p
	db.series[series] = pts
	return existed
}

// Update runs fn inside one store critical section. Every point the callback
// inserts — plus whatever else it does while it runs, such as advancing a
// dedupe high-water mark or appending a commit mark to the write-ahead log —
// is atomic with respect to Snapshot: the checkpoint's snapshot+WAL-rotation
// boundary lands either entirely before or entirely after the callback,
// never inside it. The controller stores each agent batch through this door,
// which is what guarantees a checkpoint can never capture half a batch, or a
// batch's rows without the session state that dedupes its retransmission.
// The callback must not call other DB methods (db.mu is held throughout).
func (db *DB) Update(fn func(insert func(series string, p Point))) {
	inserted, created := 0, 0
	db.mu.Lock()
	fn(func(series string, p Point) {
		start := time.Now()
		if !db.insertLocked(series, p) {
			created++
		}
		inserted++
		hInsert.ObserveSince(start)
	})
	db.mu.Unlock()
	if created > 0 {
		gSeries.Add(float64(created))
	}
	mPoints.Add(int64(inserted))
}

// Snapshot copies every series under the write lock and, while still holding
// it, runs fn. The callback is the checkpoint/WAL-rotation hook: because no
// Insert can run while fn does, every point is either fully inside the
// returned snapshot (its log record is retired with the old WAL generation)
// or fully after it (its record lands in the new generation and replays) —
// never both, never neither.
func (db *DB) Snapshot(fn func()) map[string][]Point {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[string][]Point, len(db.series))
	for name, pts := range db.series {
		cp := make([]Point, len(pts))
		copy(cp, pts)
		out[name] = cp
	}
	if fn != nil {
		fn()
	}
	return out
}

// Load wholesale-replaces one series with the given points (assumed sorted —
// checkpoints store them that way). It is the recovery restore path and
// deliberately bypasses the insert logger: re-logging recovered data would
// double it on the next replay.
func (db *DB) Load(series string, pts []Point) {
	cp := make([]Point, len(pts))
	copy(cp, pts)
	db.mu.Lock()
	_, existed := db.series[series]
	db.series[series] = cp
	db.mu.Unlock()
	if !existed {
		gSeries.Add(1)
	}
	mPoints.Add(int64(len(pts)))
}

// Series returns the sorted names of all series.
func (db *DB) Series() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.series))
	for n := range db.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of points in a series.
func (db *DB) Len(series string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.series[series])
}

// Range returns a copy of the points with from <= timestamp < to.
func (db *DB) Range(series string, from, to int64) []Point {
	start := time.Now()
	db.mu.RLock()
	defer db.mu.RUnlock()
	pts := db.series[series]
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].TimestampMillis >= from })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].TimestampMillis >= to })
	out := make([]Point, hi-lo)
	copy(out, pts[lo:hi])
	mQueries.Inc()
	hQuery.ObserveSince(start)
	return out
}

// Bounds returns the first and last timestamps of a series, or ok=false for
// an empty series.
func (db *DB) Bounds(series string) (first, last int64, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pts := db.series[series]
	if len(pts) == 0 {
		return 0, 0, false
	}
	return pts[0].TimestampMillis, pts[len(pts)-1].TimestampMillis, true
}

// ResampleLinear evaluates a series on the regular grid from, from+step, ...
// up to but excluding to, using linear interpolation between neighbouring
// points ("the controller uses interpolation to fill in the gaps", §3.2).
// Grid positions before the first or after the last observation clamp to the
// boundary value. It returns an error for an empty series or non-positive
// step.
func (db *DB) ResampleLinear(series string, from, to, stepMillis int64) ([]float64, error) {
	start := time.Now()
	defer func() {
		mQueries.Inc()
		hQuery.ObserveSince(start)
	}()
	if stepMillis <= 0 {
		return nil, fmt.Errorf("tsdb: step must be positive, got %d", stepMillis)
	}
	if to <= from {
		return nil, fmt.Errorf("tsdb: empty resample range [%d, %d)", from, to)
	}
	db.mu.RLock()
	pts := db.series[series]
	db.mu.RUnlock()
	if len(pts) == 0 {
		return nil, fmt.Errorf("tsdb: series %q is empty", series)
	}
	n := int((to - from + stepMillis - 1) / stepMillis)
	out := make([]float64, n)
	j := 0
	for i := 0; i < n; i++ {
		t := from + int64(i)*stepMillis
		for j+1 < len(pts) && pts[j+1].TimestampMillis <= t {
			j++
		}
		switch {
		case t <= pts[0].TimestampMillis:
			out[i] = pts[0].Value
		case j == len(pts)-1:
			out[i] = pts[len(pts)-1].Value
		default:
			a, b := pts[j], pts[j+1]
			span := float64(b.TimestampMillis - a.TimestampMillis)
			if span == 0 {
				out[i] = b.Value
			} else {
				frac := float64(t-a.TimestampMillis) / span
				out[i] = a.Value + frac*(b.Value-a.Value)
			}
		}
	}
	return out, nil
}

// SmoothMovingAverage returns a copy of values smoothed with a centered
// sliding window of the given odd width ("the controller performs a
// smoothing operation ... by maintaining a sliding moving average", §3.2).
// Windows are truncated at the boundaries.
func SmoothMovingAverage(values []float64, window int) ([]float64, error) {
	if window <= 0 || window%2 == 0 {
		return nil, fmt.Errorf("tsdb: smoothing window must be a positive odd number, got %d", window)
	}
	half := window / 2
	out := make([]float64, len(values))
	for i := range values {
		lo := max(0, i-half)
		hi := min(len(values), i+half+1)
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out, nil
}

// Prune drops every point older than cutoff (timestamp < cutoff) from all
// series and removes series that become empty, returning the number of
// points dropped. Long-running collection sessions call this to bound
// memory.
func (db *DB) Prune(cutoff int64) int {
	start := time.Now()
	db.mu.Lock()
	dropped, deleted := 0, 0
	for name, pts := range db.series {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].TimestampMillis >= cutoff })
		if i == 0 {
			continue
		}
		dropped += i
		rest := pts[i:]
		if len(rest) == 0 {
			delete(db.series, name)
			deleted++
			continue
		}
		kept := make([]Point, len(rest))
		copy(kept, rest)
		db.series[name] = kept
	}
	db.mu.Unlock()
	gSeries.Add(float64(-deleted))
	mPruned.Add(int64(dropped))
	hPrune.ObserveSince(start)
	return dropped
}
