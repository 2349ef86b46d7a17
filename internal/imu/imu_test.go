package imu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"darnet/internal/tensor"
)

func randomSample(rng *rand.Rand, ts int64) Sample {
	var s Sample
	s.TimestampMillis = ts
	for i := 0; i < 3; i++ {
		s.Accel[i] = rng.NormFloat64()
		s.Gyro[i] = rng.NormFloat64()
		s.Gravity[i] = rng.NormFloat64()
	}
	for i := 0; i < 4; i++ {
		s.Rotation[i] = rng.NormFloat64()
	}
	return s
}

func TestFeaturesLayout(t *testing.T) {
	s := Sample{
		Accel:    [3]float64{1, 2, 3},
		Gyro:     [3]float64{4, 5, 6},
		Gravity:  [3]float64{7, 8, 9},
		Rotation: [4]float64{10, 11, 12, 13},
	}
	f := s.Features()
	if len(f) != FeatureDim {
		t.Fatalf("features length %d, want %d", len(f), FeatureDim)
	}
	for i, want := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13} {
		if f[i] != want {
			t.Fatalf("feature[%d] = %g, want %g", i, f[i], want)
		}
	}
}

// Property: SampleFromFeatures inverts Features, timestamp included.
func TestSampleFromFeaturesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSample(rng, seed)
		return SampleFromFeatures(s.TimestampMillis, s.Features()) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowTensorAndFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := Window{Samples: []Sample{randomSample(rng, 0), randomSample(rng, 250)}}
	x := w.Tensor()
	if x.Dim(0) != 2 || x.Dim(1) != FeatureDim {
		t.Fatalf("tensor shape %v", x.Shape())
	}
	flat := w.Flatten()
	if len(flat) != 2*FeatureDim {
		t.Fatalf("flatten length %d", len(flat))
	}
	for j := 0; j < FeatureDim; j++ {
		if flat[FeatureDim+j] != x.At(1, j) {
			t.Fatal("flatten disagrees with tensor layout")
		}
	}
}

func TestSlidingWindowsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	samples := make([]Sample, 50)
	for i := range samples {
		samples[i] = randomSample(rng, int64(i*250))
	}
	tests := []struct {
		size, stride, want int
	}{
		{20, 20, 2},
		{20, 10, 4},
		{20, 1, 31},
		{50, 1, 1},
		{51, 1, 0},
	}
	for _, tt := range tests {
		ws, err := SlidingWindows(samples, tt.size, tt.stride)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != tt.want {
			t.Fatalf("size=%d stride=%d: got %d windows, want %d", tt.size, tt.stride, len(ws), tt.want)
		}
	}
	if _, err := SlidingWindows(samples, 0, 1); err == nil {
		t.Fatal("expected size validation error")
	}
	if _, err := SlidingWindows(samples, 1, 0); err == nil {
		t.Fatal("expected stride validation error")
	}
}

func TestSlidingWindowsContent(t *testing.T) {
	samples := make([]Sample, 6)
	for i := range samples {
		samples[i].Accel[0] = float64(i)
	}
	ws, err := SlidingWindows(samples, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("got %d windows", len(ws))
	}
	if ws[1].Samples[0].Accel[0] != 2 {
		t.Fatalf("second window starts at %g", ws[1].Samples[0].Accel[0])
	}
}

func TestFitStatsAndNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var windows []Window
	for i := 0; i < 10; i++ {
		samples := make([]Sample, WindowSize)
		for j := range samples {
			s := randomSample(rng, int64(j*250))
			// Shift accel x so the mean is clearly nonzero.
			s.Accel[0] += 5
			samples[j] = s
		}
		windows = append(windows, Window{Samples: samples})
	}
	st, err := FitStats(windows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Mean[0]-5) > 0.2 {
		t.Fatalf("accel-x mean = %g, want ~5", st.Mean[0])
	}
	norm := st.Normalize(windows[0])
	if norm.Dim(0) != WindowSize || norm.Dim(1) != FeatureDim {
		t.Fatalf("normalized shape %v", norm.Shape())
	}
	// Normalized feature 0 across all windows should have ~zero mean.
	total, count := 0.0, 0
	for _, w := range windows {
		n := st.Normalize(w)
		for tt := 0; tt < n.Dim(0); tt++ {
			total += n.At(tt, 0)
			count++
		}
	}
	if m := total / float64(count); math.Abs(m) > 1e-9 {
		t.Fatalf("normalized mean = %g, want 0", m)
	}

	flat := st.NormalizeFlat(windows[0])
	if len(flat) != WindowSize*FeatureDim {
		t.Fatalf("normalized flat length %d", len(flat))
	}
	if math.Abs(flat[0]-norm.At(0, 0)) > 1e-12 {
		t.Fatal("NormalizeFlat disagrees with Normalize")
	}
}

func TestFitStatsEmpty(t *testing.T) {
	if _, err := FitStats(nil); err == nil {
		t.Fatal("expected empty-set error")
	}
}

// Property: normalization preserves window length and is invertible given the
// stats (x == norm * std + mean).
func TestNormalizeInvertibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		samples := make([]Sample, 5)
		for i := range samples {
			samples[i] = randomSample(rng, int64(i))
		}
		w := Window{Samples: samples}
		st, err := FitStats([]Window{w})
		if err != nil {
			return false
		}
		norm := st.Normalize(w)
		orig := w.Tensor()
		for t := 0; t < 5; t++ {
			for j := 0; j < FeatureDim; j++ {
				back := norm.At(t, j)*st.Std[j] + st.Mean[j]
				if math.Abs(back-orig.At(t, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizeIntoReusesScratch: NormalizeInto overwrites every cell of a
// reused destination with Normalize's (v − mean)/std, bit for bit, and
// refuses a destination of the wrong shape.
func TestNormalizeIntoReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]Sample, WindowSize)
	for i := range samples {
		samples[i] = randomSample(rng, int64(i))
	}
	w := Window{Samples: samples}
	st, err := FitStats([]Window{w})
	if err != nil {
		t.Fatal(err)
	}
	want := st.Normalize(w)
	dst := tensor.Full(math.NaN(), WindowSize, FeatureDim)
	for pass := 0; pass < 2; pass++ {
		st.NormalizeInto(dst, w)
		for i, v := range dst.Data() {
			s := samples[i/FeatureDim].Features()[i%FeatureDim]
			oracle := (s - st.Mean[i%FeatureDim]) / st.Std[i%FeatureDim]
			if math.Float64bits(v) != math.Float64bits(want.Data()[i]) || math.Float64bits(v) != math.Float64bits(oracle) {
				t.Fatalf("pass %d cell %d: NormalizeInto %v, Normalize %v, (v-mean)/std %v", pass, i, v, want.Data()[i], oracle)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NormalizeInto accepted a destination one step short")
		}
	}()
	st.NormalizeInto(tensor.New(WindowSize-1, FeatureDim), w)
}
