package tsdb

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestInsertKeepsOrder(t *testing.T) {
	db := New()
	for _, ts := range []int64{50, 10, 30, 20, 40, 25} {
		db.Insert("s", Point{TimestampMillis: ts, Value: float64(ts)})
	}
	pts := db.Range("s", 0, 100)
	if len(pts) != 6 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TimestampMillis < pts[i-1].TimestampMillis {
			t.Fatalf("points out of order: %v", pts)
		}
	}
}

// TestInsertEqualTimestampsKeepArrivalOrder pins the equal-timestamp
// contract WAL replay depends on: points sharing a timestamp stay in
// arrival order, so re-inserting a recovered sequence reproduces the exact
// pre-crash series.
func TestInsertEqualTimestampsKeepArrivalOrder(t *testing.T) {
	db := New()
	// Interleave duplicates of ts=20 with surrounding points.
	arrivals := []Point{{20, 1}, {10, 0}, {20, 2}, {30, 9}, {20, 3}, {20, 4}}
	for _, p := range arrivals {
		db.Insert("s", p)
	}
	got := db.Range("s", 20, 21)
	if len(got) != 4 {
		t.Fatalf("got %d points at ts=20, want 4", len(got))
	}
	for i, p := range got {
		if p.Value != float64(i+1) {
			t.Fatalf("equal-timestamp points out of arrival order: %v", got)
		}
	}
	// Replaying the identical arrival sequence into a fresh DB must produce
	// a byte-identical series.
	replay := New()
	for _, p := range arrivals {
		replay.Insert("s", p)
	}
	a, b := db.Range("s", 0, 100), replay.Range("s", 0, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRangeBoundaries(t *testing.T) {
	db := New()
	for _, p := range []Point{{10, 1}, {20, 2}, {30, 3}} {
		db.Insert("s", p)
	}
	got := db.Range("s", 10, 30) // [from, to)
	if len(got) != 2 || got[0].Value != 1 || got[1].Value != 2 {
		t.Fatalf("range = %v", got)
	}
	if len(db.Range("s", 35, 99)) != 0 {
		t.Fatal("expected empty range")
	}
	if len(db.Range("missing", 0, 100)) != 0 {
		t.Fatal("missing series should yield empty range")
	}
}

func TestBoundsAndSeries(t *testing.T) {
	db := New()
	if _, _, ok := db.Bounds("s"); ok {
		t.Fatal("empty series should have no bounds")
	}
	db.Insert("b", Point{5, 0})
	db.Insert("a", Point{1, 0})
	db.Insert("a", Point{9, 0})
	first, last, ok := db.Bounds("a")
	if !ok || first != 1 || last != 9 {
		t.Fatalf("bounds = %d %d %v", first, last, ok)
	}
	names := db.Series()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("series = %v", names)
	}
	if db.Len("a") != 2 {
		t.Fatalf("len = %d", db.Len("a"))
	}
}

func TestResampleLinearInterpolates(t *testing.T) {
	db := New()
	for _, p := range []Point{{0, 0}, {100, 10}} {
		db.Insert("s", p)
	}
	vals, err := db.ResampleLinear("s", 0, 101, 25)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2.5, 5, 7.5, 10}
	if len(vals) != len(want) {
		t.Fatalf("got %d values", len(vals))
	}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-12 {
			t.Fatalf("vals[%d] = %g, want %g", i, vals[i], w)
		}
	}
}

func TestResampleClampsBoundaries(t *testing.T) {
	db := New()
	for _, p := range []Point{{100, 5}, {200, 7}} {
		db.Insert("s", p)
	}
	vals, err := db.ResampleLinear("s", 0, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 5 { // before first point clamps
		t.Fatalf("pre-clamp = %g", vals[0])
	}
	if vals[2] != 7 { // after last point clamps
		t.Fatalf("post-clamp = %g", vals[2])
	}
}

func TestResampleValidation(t *testing.T) {
	db := New()
	if _, err := db.ResampleLinear("none", 0, 10, 1); err == nil {
		t.Fatal("expected empty-series error")
	}
	db.Insert("s", Point{0, 0})
	if _, err := db.ResampleLinear("s", 0, 10, 0); err == nil {
		t.Fatal("expected step error")
	}
	if _, err := db.ResampleLinear("s", 10, 10, 1); err == nil {
		t.Fatal("expected range error")
	}
}

func TestResampleDuplicateTimestamps(t *testing.T) {
	db := New()
	for _, p := range []Point{{10, 1}, {10, 3}, {20, 5}} {
		db.Insert("s", p)
	}
	vals, err := db.ResampleLinear("s", 10, 21, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("got %d values", len(vals))
	}
	// Must not produce NaN on zero-span segments.
	for _, v := range vals {
		if math.IsNaN(v) {
			t.Fatal("NaN from duplicate timestamps")
		}
	}
}

func TestSmoothMovingAverage(t *testing.T) {
	vals := []float64{0, 10, 0, 10, 0}
	sm, err := SmoothMovingAverage(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 10.0 / 3, 20.0 / 3, 10.0 / 3, 5}
	for i, w := range want {
		if math.Abs(sm[i]-w) > 1e-12 {
			t.Fatalf("sm[%d] = %g, want %g", i, sm[i], w)
		}
	}
	if _, err := SmoothMovingAverage(vals, 2); err == nil {
		t.Fatal("expected even-window error")
	}
	if _, err := SmoothMovingAverage(vals, 0); err == nil {
		t.Fatal("expected non-positive window error")
	}
}

// Property: smoothing preserves constants and never exceeds input extrema.
func TestSmoothingBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 1+rng.Intn(30))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range vals {
			vals[i] = rng.NormFloat64()
			lo = math.Min(lo, vals[i])
			hi = math.Max(hi, vals[i])
		}
		sm, err := SmoothMovingAverage(vals, 1+2*rng.Intn(4))
		if err != nil {
			return false
		}
		for _, v := range sm {
			if v < lo-1e-12 || v > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: resampling a linear signal reproduces it exactly at grid points.
func TestResampleLinearExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slope := rng.NormFloat64()
		intercept := rng.NormFloat64()
		db := New()
		// Irregular observation times of the same line.
		ts := int64(0)
		for i := 0; i < 20; i++ {
			ts += int64(1 + rng.Intn(50))
			db.Insert("s", Point{ts, slope*float64(ts) + intercept})
		}
		first, last, _ := db.Bounds("s")
		vals, err := db.ResampleLinear("s", first, last, 7)
		if err != nil {
			return false
		}
		for i, v := range vals {
			t := first + int64(i)*7
			want := slope*float64(t) + intercept
			if math.Abs(v-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertAndRead(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.Insert("s", Point{int64(g*1000 + i), float64(i)})
				_ = db.Range("s", 0, 10000)
			}
		}(g)
	}
	wg.Wait()
	if db.Len("s") != 8*200 {
		t.Fatalf("len = %d", db.Len("s"))
	}
}

func TestPrune(t *testing.T) {
	db := New()
	for _, p := range []Point{{10, 1}, {20, 2}, {30, 3}} {
		db.Insert("a", p)
	}
	for _, p := range []Point{{5, 1}, {6, 2}} {
		db.Insert("b", p)
	}
	dropped := db.Prune(25)
	if dropped != 4 {
		t.Fatalf("dropped = %d, want 4", dropped)
	}
	if db.Len("a") != 1 {
		t.Fatalf("series a has %d points", db.Len("a"))
	}
	// Fully pruned series disappears.
	names := db.Series()
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("series = %v", names)
	}
	// Pruning again is a no-op.
	if db.Prune(25) != 0 {
		t.Fatal("second prune dropped points")
	}
	// Remaining data still queryable.
	pts := db.Range("a", 0, 100)
	if len(pts) != 1 || pts[0].Value != 3 {
		t.Fatalf("range after prune = %v", pts)
	}
}
