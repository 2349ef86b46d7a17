package stream

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"darnet/internal/bayes"
	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/rnn"
	"darnet/internal/telemetry"
)

// untrainedEngine builds an engine over w×h frames with the served
// architectures — the MicroInception CNN and two BiLSTM layers of hidden
// units per direction, 6 classes over 3 IMU classes — with untrained
// weights and a combiner fitted on random predictions. Its stages cost what
// a trained engine's do, without paying for training.
func untrainedEngine(tb testing.TB, seed int64, w, h, hidden int) *core.Engine {
	tb.Helper()
	const classes, imuClasses = 6, 3
	rng := rand.New(rand.NewSource(seed))
	cnn, err := core.BuildFrameCNN(rng, w, h, classes, core.DefaultCNNConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cls, err := rnn.NewClassifier("imurnn", rng, rnn.Config{Input: imu.FeatureDim, Hidden: hidden, Layers: 2, Classes: imuClasses})
	if err != nil {
		tb.Fatal(err)
	}
	windows := make([]imu.Window, 4)
	for i := range windows {
		windows[i] = randomWindow(rng)
	}
	stats, err := imu.FitStats(windows)
	if err != nil {
		tb.Fatal(err)
	}
	bn, err := bayes.NewCombiner(classes, classes, imuClasses)
	if err != nil {
		tb.Fatal(err)
	}
	labels, cnnPred, rnnPred := make([]int, 24), make([]int, 24), make([]int, 24)
	for i := range labels {
		labels[i], cnnPred[i], rnnPred[i] = i%classes, rng.Intn(classes), rng.Intn(imuClasses)
	}
	if err := bn.Fit(labels, [][]int{cnnPred, rnnPred}, 1); err != nil {
		tb.Fatal(err)
	}
	return &core.Engine{
		CNN: cnn, RNN: cls, IMUStats: stats, BNWithRNN: bn,
		Classes: classes, IMUClasses: imuClasses, ClassMap: bayes.ClassMap{0, 1, 2, 0, 1, 2}, ImgW: w, ImgH: h,
	}
}

// randomWindow returns a full window of random feature rows.
func randomWindow(rng *rand.Rand) imu.Window {
	samples := make([]imu.Sample, imu.WindowSize)
	row := make([]float64, imu.FeatureDim)
	for s := range samples {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		samples[s] = imu.SampleFromFeatures(int64(s*250), row)
	}
	return imu.Window{Samples: samples}
}

// randomFrames returns n frames of w×h random pixels.
func randomFrames(rng *rand.Rand, n, w, h int) [][]float64 {
	frames := make([][]float64, n)
	for i := range frames {
		frames[i] = make([]float64, w*h)
		for j := range frames[i] {
			frames[i][j] = rng.Float64()
		}
	}
	return frames
}

// eagerTicker is the oracle for EngineTicker: it runs the CNN on every frame
// it does not skip and fuses the last distribution with each completed
// window, which is what each decision must equal.
type eagerTicker struct {
	eng     *core.Engine
	window  []imu.Sample
	lastCNN []float64
}

func (t *eagerTicker) Tick(sample *imu.Sample, frame []float64, skipFrame bool) (*core.Classification, bool, error) {
	skipped := false
	if frame != nil {
		if skipFrame && t.lastCNN != nil {
			skipped = true
		} else {
			probs, err := t.eng.FrameProbs(frame)
			if err != nil {
				return nil, false, err
			}
			t.lastCNN = probs
		}
	}
	if sample == nil {
		return nil, skipped, nil
	}
	t.window = append(t.window, *sample)
	if len(t.window) < imu.WindowSize {
		return nil, skipped, nil
	}
	window := imu.Window{Samples: t.window}
	t.window = t.window[:0]
	rnnProbs, err := t.eng.WindowProbs(window)
	if err != nil {
		return nil, skipped, err
	}
	cls, err := t.eng.Fuse(t.lastCNN, rnnProbs)
	return cls, skipped, err
}

// metricCount reads a counter's value or a histogram's count from the
// default registry.
func metricCount(name string) int64 {
	snap := telemetry.Default.Snapshot()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}

// tickStep is one input of a ticker schedule: an optional sample, an
// optional frame (an index into the schedule's frames, or -1), and the skip
// request.
type tickStep struct {
	sample *imu.Sample
	frame  int
	short  bool // the frame misses its last pixel
	skip   bool
}

// tickResult is what one Tick returned.
type tickResult struct {
	cls     *core.Classification
	skipped bool
	err     error
}

// randomSchedule returns eight windows' worth of random steps over windows
// (a rejected frame drops the sample it came with, so fewer may complete): each
// window draws its own frame rate (0 included), a tenth of the frames are
// a pixel short, and a third of the steps ask to skip.
func randomSchedule(rng *rand.Rand, windows []imu.Window, frames int) []tickStep {
	var steps []tickStep
	for win := 0; win < 8; win++ {
		frameRate := []float64{0, 0.1, 0.5, 1}[rng.Intn(4)]
		for s := 0; s < imu.WindowSize; {
			st := tickStep{frame: -1, skip: rng.Intn(3) == 0}
			if rng.Float64() < 0.8 {
				st.sample = &windows[win%len(windows)].Samples[s]
				s++
			}
			if rng.Float64() < frameRate {
				st.frame, st.short = rng.Intn(frames), rng.Intn(10) == 0
			}
			steps = append(steps, st)
		}
	}
	return steps
}

// runSchedule ticks tk through steps. Every frame is copied into one
// buffer that is overwritten with NaN after its tick, as a caller reusing
// its slice would.
func runSchedule(tk Ticker, steps []tickStep, frames [][]float64) []tickResult {
	buf := make([]float64, len(frames[0]))
	out := make([]tickResult, len(steps))
	for i, st := range steps {
		var frame []float64
		if st.frame >= 0 {
			copy(buf, frames[st.frame])
			frame = buf
			if st.short {
				frame = buf[:len(buf)-1]
			}
		}
		r := &out[i]
		r.cls, r.skipped, r.err = tk.Tick(st.sample, frame, st.skip)
		for j := range buf {
			buf[j] = math.NaN()
		}
	}
	return out
}

// TestEngineTickerMatchesEager drives EngineTicker and the eager oracle
// over seeded random schedules of samples and frames, with skip requests
// (some before any frame), wrong-size frames and windows without a frame.
// Every tick must agree bit for bit: decision, skipped flag and whether it
// failed. The lazy ticker runs the CNN at most once per decision, counts
// each rejected frame once, and leaves no goroutine behind.
func TestEngineTickerMatchesEager(t *testing.T) {
	const w, h = 16, 16
	eng := untrainedEngine(t, 1, w, h, 8)
	base := runtime.NumGoroutine()
	var lazyCNN, eagerCNN int64
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frames := randomFrames(rng, 3, w, h)
		steps := randomSchedule(rng, []imu.Window{randomWindow(rng), randomWindow(rng)}, len(frames))
		if seed == 1 {
			// A skip request before any frame is ignored.
			steps = append([]tickStep{{frame: 0, skip: true}}, steps...)
		}

		cnnRuns := metricCount("darnet_core_cnn_forward_seconds")
		want := runSchedule(&eagerTicker{eng: eng}, steps, frames)
		eagerCNN += metricCount("darnet_core_cnn_forward_seconds") - cnnRuns

		tk, err := EngineTickerFactory(eng)()
		if err != nil {
			t.Fatal(err)
		}
		cnnRuns, errs := metricCount("darnet_core_cnn_forward_seconds"), metricCount("darnet_core_classify_errors_total")
		got := runSchedule(tk, steps, frames)
		cnnRuns = metricCount("darnet_core_cnn_forward_seconds") - cnnRuns
		errs = metricCount("darnet_core_classify_errors_total") - errs
		lazyCNN += cnnRuns

		var decisions, failed int64
		for i, g := range got {
			wt := want[i]
			switch {
			case (g.err != nil) != (wt.err != nil):
				t.Fatalf("seed %d tick %d: error %v, eager %v", seed, i, g.err, wt.err)
			case g.skipped != wt.skipped:
				t.Fatalf("seed %d tick %d: skipped %v, eager %v", seed, i, g.skipped, wt.skipped)
			case (g.cls != nil) != (wt.cls != nil):
				t.Fatalf("seed %d tick %d: decision %v, eager %v", seed, i, g.cls, wt.cls)
			case g.cls != nil && !sameClassification(g.cls, wt.cls):
				t.Fatalf("seed %d tick %d: decision %+v, eager %+v", seed, i, g.cls, wt.cls)
			}
			if g.cls != nil {
				decisions++
			}
			if g.err != nil {
				failed++
			}
		}
		if decisions == 0 {
			t.Fatalf("seed %d: no decision", seed)
		}
		if cnnRuns > decisions {
			t.Fatalf("seed %d: %d CNN passes for %d decisions", seed, cnnRuns, decisions)
		}
		if errs != failed {
			t.Fatalf("seed %d: darnet_core_classify_errors_total moved by %d for %d failed ticks", seed, errs, failed)
		}
	}
	if lazyCNN == 0 || lazyCNN >= eagerCNN {
		t.Fatalf("%d CNN passes, the eager oracle %d", lazyCNN, eagerCNN)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the schedules, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkEngineTickerWindow is the ticker ledger: one op is one window at
// perfbench's stream geometry, five polls of a frame tick then four sample
// ticks, none skipped, on the paper-size CNN over 32×32 frames and two
// BiLSTM layers of 64 units per direction with untrained weights. Run it
// with `make bench-kernels`.
func BenchmarkEngineTickerWindow(b *testing.B) {
	const polls, samplesPerPoll = 5, imu.WindowSize / 5
	eng := untrainedEngine(b, 1, 32, 32, 64)
	rng := rand.New(rand.NewSource(2))
	frames := randomFrames(rng, polls, 32, 32)
	window := randomWindow(rng)
	tk, err := EngineTickerFactory(eng)()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var cls *core.Classification
		for p := 0; p < polls; p++ {
			if _, _, err := tk.Tick(nil, frames[p], false); err != nil {
				b.Fatal(err)
			}
			for s := p * samplesPerPoll; s < (p+1)*samplesPerPoll; s++ {
				if cls, _, err = tk.Tick(&window.Samples[s], nil, false); err != nil {
					b.Fatal(err)
				}
			}
		}
		if cls == nil {
			b.Fatal("the window made no decision")
		}
	}
}
