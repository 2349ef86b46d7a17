package stream

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"darnet/internal/core"
	"darnet/internal/imu"
)

// tick returns the i-th observation time of a stream sampled every period.
// The origin is non-zero because the Alerter reserves the zero Time.
func tick(i int, period time.Duration) time.Time {
	return time.Unix(0, 0).Add(time.Duration(i) * period)
}

func mustAlerter(t *testing.T, cfg AlertConfig) *Alerter {
	t.Helper()
	a, err := NewAlerter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAlerterValidation(t *testing.T) {
	bad := []AlertConfig{
		{NormalClass: -1},
		{Enter: 0.4, Exit: 0.6},
		{Enter: 0.5, Exit: 0.5},
		{Dwell: -time.Second},
	}
	for _, cfg := range bad {
		if _, err := NewAlerter(cfg); err == nil {
			t.Errorf("NewAlerter accepted %+v", cfg)
		}
	}
	a := mustAlerter(t, AlertConfig{})
	if a.cfg.Enter != 0.6 || a.cfg.Exit != 0.4 {
		t.Fatalf("defaults not filled: %+v", a.cfg)
	}
	if a.Active() {
		t.Fatal("a new alerter must start with no alert raised")
	}
}

func TestAlertEventStrings(t *testing.T) {
	if AlertRaised.String() != "raised" || AlertCleared.String() != "cleared" || AlertNone.String() != "none" {
		t.Fatal("event strings wrong")
	}
	if !strings.Contains(AlertEvent(9).String(), "9") {
		t.Fatal("unknown event should render its value")
	}
}

// A 2 s dwell over 1 s windows raises on the third sustained window.
func TestAlerterRaisesAfterConsecutiveDistraction(t *testing.T) {
	a := mustAlerter(t, AlertConfig{Dwell: 2 * time.Second})
	for i := 0; i < 2; i++ {
		if ev := a.Observe(tick(i, time.Second), cls(0.9)); ev != AlertNone {
			t.Fatalf("distracted window %d raised %v", i, ev)
		}
	}
	if ev := a.Observe(tick(2, time.Second), cls(0.8)); ev != AlertRaised {
		t.Fatalf("third distracted window gave %v", ev)
	}
	if !a.Active() {
		t.Fatal("alert should be active")
	}
	// Further distraction does not re-raise.
	if ev := a.Observe(tick(3, time.Second), cls(0.9)); ev != AlertNone {
		t.Fatalf("re-raise: %v", ev)
	}
}

func TestAlerterHysteresisIgnoresSingleBlips(t *testing.T) {
	a := mustAlerter(t, AlertConfig{Dwell: 2 * time.Second})
	at := func(i int) time.Time { return tick(i, time.Second) }
	// One distracted window must not raise.
	a.Observe(at(0), cls(0.9))
	if ev := a.Observe(at(1), cls(0.1)); ev != AlertNone || a.Active() {
		t.Fatal("single blip raised an alert")
	}
	// Raise properly.
	a.Observe(at(2), cls(0.9))
	a.Observe(at(3), cls(0.9))
	if ev := a.Observe(at(4), cls(0.9)); ev != AlertRaised {
		t.Fatal("alert not raised")
	}
	// Normal windows short of the dwell, or mid-band evidence, must not
	// clear.
	a.Observe(at(5), cls(0.1))
	a.Observe(at(6), cls(0.5))
	if !a.Active() {
		t.Fatal("a normal window and a mid-band window cleared the alert")
	}
	// A distracted window resets the clear dwell.
	a.Observe(at(7), cls(0.9))
	a.Observe(at(8), cls(0.1))
	a.Observe(at(9), cls(0.1))
	if !a.Active() {
		t.Fatal("clear dwell was not reset by distraction")
	}
	if ev := a.Observe(at(10), cls(0.1)); ev != AlertCleared || a.Active() {
		t.Fatalf("third sustained normal window gave %v", ev)
	}
}

// Property: Active() flips exactly on Raised/Cleared events and never
// otherwise, for arbitrary evidence streams, modes and observation gaps.
func TestAlerterTransitionConsistencyProperty(t *testing.T) {
	f := func(stream []uint16) bool {
		a, err := NewAlerter(AlertConfig{Dwell: 300 * time.Millisecond})
		if err != nil {
			return false
		}
		now := tick(0, 0)
		prev := a.Active()
		for _, v := range stream {
			c := cls(float64(v&0xff) / 255)
			if v&0x100 != 0 {
				c.Mode = core.ModeCNNOnly
			}
			now = now.Add(time.Duration(v>>9) * 20 * time.Millisecond)
			ev := a.Observe(now, c)
			cur := a.Active()
			switch ev {
			case AlertRaised:
				if prev || !cur {
					return false
				}
			case AlertCleared:
				if !prev || cur {
					return false
				}
			case AlertNone:
				if prev != cur {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateAlerts scores recorded sessions. darnetd's 2 s dwell over 5 s
// windows raises on the second sustained distracted window and clears on the
// second sustained normal one. Predictions are distracted evidence
// (1 − P(normal)).
func TestEvaluateAlerts(t *testing.T) {
	const period = 5 * time.Second
	cfg := AlertConfig{Dwell: 2 * time.Second}
	const hi, lo = 0.9, 0.1
	cases := []struct {
		name  string
		truth []int
		pred  []float64
		want  AlertReport
	}{
		// Session N N D D D N N D D N: two episodes, each alerted on its
		// second window (delay 1).
		{"PerfectPredictions", []int{0, 0, 1, 1, 1, 0, 0, 2, 2, 0},
			[]float64{lo, lo, hi, hi, hi, lo, lo, hi, hi, lo},
			AlertReport{Episodes: 2, Detected: 2, MeanDetectionDelay: 1}},
		// The model never notices.
		{"MissedEpisode", []int{0, 1, 1, 1, 0},
			[]float64{lo, lo, lo, lo, lo},
			AlertReport{Episodes: 1}},
		// Two misclassified windows raise a false alert.
		{"FalseAlert", []int{0, 0, 0, 0, 0, 0},
			[]float64{lo, hi, hi, lo, lo, lo},
			AlertReport{FalseAlerts: 1}},
		// Isolated blips are absorbed by the dwell.
		{"SingleBlipDoesNotFalseAlert", []int{0, 0, 0, 0, 0, 0, 0, 0},
			[]float64{lo, hi, lo, lo, hi, lo, lo, lo},
			AlertReport{}},
		// The alert raised in episode 1 is still active when episode 2
		// begins (one normal window between them): episode 2 counts as
		// detected immediately.
		{"ActiveAlertSpansEpisodes", []int{1, 1, 1, 0, 2, 2, 0, 0},
			[]float64{hi, hi, hi, hi, hi, hi, lo, lo},
			AlertReport{Episodes: 2, Detected: 2, MeanDetectionDelay: 0.5}},
		{"TrailingEpisodeCounted", []int{0, 0, 1, 1},
			[]float64{lo, lo, hi, hi},
			AlertReport{Episodes: 1, Detected: 1, MeanDetectionDelay: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			preds := make([]*core.Classification, len(tc.pred))
			for i, p := range tc.pred {
				preds[i] = cls(p)
			}
			got, err := EvaluateAlerts(tc.truth, preds, period, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Episodes != tc.want.Episodes || got.Detected != tc.want.Detected ||
				got.FalseAlerts != tc.want.FalseAlerts ||
				math.Abs(got.MeanDetectionDelay-tc.want.MeanDetectionDelay) > 1e-12 {
				t.Fatalf("report = %+v, want %+v", got, tc.want)
			}
			wantRate := 0.0
			if tc.want.Episodes > 0 {
				wantRate = float64(tc.want.Detected) / float64(tc.want.Episodes)
			}
			if got.DetectionRate() != wantRate {
				t.Fatalf("detection rate = %g, want %g", got.DetectionRate(), wantRate)
			}
		})
	}

	t.Run("Validation", func(t *testing.T) {
		one := []*core.Classification{cls(0.1)}
		if _, err := EvaluateAlerts([]int{0, 1}, one, period, cfg); err == nil {
			t.Fatal("expected alignment error")
		}
		if _, err := EvaluateAlerts([]int{0}, one, 0, cfg); err == nil {
			t.Fatal("expected period error")
		}
		if _, err := EvaluateAlerts([]int{0}, one, period, AlertConfig{Enter: 0.3, Exit: 0.5}); err == nil {
			t.Fatal("expected threshold error")
		}
		if _, err := EvaluateAlerts([]int{0}, []*core.Classification{nil}, period, cfg); err == nil {
			t.Fatal("expected missing-classification error")
		}
	})
}

// alertScript is a seeded session of window classifications mixing the
// inputs the served FSM treats differently: fused strong evidence, degraded
// (discounted) evidence, mid-band scores, and an argmax flickering between
// two distracted classes. Runs of random length make transitions frequent.
func alertScript(seed int64, n int) []*core.Classification {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*core.Classification, 0, n)
	for len(out) < n {
		kind, run := rng.Intn(5), 1+rng.Intn(6)
		for j := 0; j < run && len(out) < n; j++ {
			var c *core.Classification
			switch kind {
			case 0: // fused, distracted
				c = cls(0.7 + 0.3*rng.Float64())
			case 1: // fused, normal
				c = cls(0.3 * rng.Float64())
			case 2: // degraded: strong evidence discounted into the band
				c = cls(0.8 + 0.2*rng.Float64())
				c.Mode = core.ModeCNNOnly
			case 3: // mid-band
				c = cls(0.4 + 0.2*rng.Float64())
			default: // flicker between two distracted classes
				d := 0.7 + 0.3*rng.Float64()
				c = &core.Classification{Class: 1 + j%2, Probs: []float64{1 - d, d / 2, d / 2}}
				c.Probs[c.Class] += 0.01
				c.Probs[3-c.Class] -= 0.01
			}
			out = append(out, c)
		}
	}
	return out
}

// TestPipelineMatchesEvaluateAlerts feeds one seeded session through a live
// Pipeline (fake clock, stub Ticker) and offline through the Alerter and
// EvaluateAlerts at the same timestamps: the library and the server must
// emit identical transitions.
func TestPipelineMatchesEvaluateAlerts(t *testing.T) {
	const period = 250 * time.Millisecond
	cfg := AlertConfig{Dwell: 400 * time.Millisecond}
	script := alertScript(13, 240)
	index := make(map[*core.Classification]int, len(script))
	for i, c := range script {
		index[c] = i
	}

	type transition struct {
		window int
		ev     AlertEvent
	}
	// The stub ticker advances the fake clock to the window's timestamp
	// before returning it, so the pipeline observes window i at tick(i).
	var clock atomic.Int64
	var next atomic.Int64
	tk := funcTicker{fn: func(*imu.Sample, []float64, bool) (*core.Classification, bool, error) {
		i := int(next.Add(1) - 1)
		clock.Store(tick(i, period).UnixNano())
		return script[i], false, nil
	}}
	var mu sync.Mutex
	var served []transition
	p, err := NewPipeline("a", Config{
		QueueCap: len(script), StallTimeout: time.Hour, Alert: cfg,
		Now: func() time.Time { return time.Unix(0, clock.Load()) },
		OnAlert: func(_ string, ev AlertEvent, c *core.Classification) {
			mu.Lock()
			served = append(served, transition{index[c], ev})
			mu.Unlock()
		},
	}, factoryOf(tk))
	if err != nil {
		t.Fatal(err)
	}
	for i := range script {
		if !p.Offer(sampleInput(int64(i))) {
			t.Fatalf("offer %d rejected", i)
		}
	}
	waitFor(t, "script consumed", func() bool { return p.Stats().Decisions == int64(len(script)) })
	p.Shutdown()

	a := mustAlerter(t, cfg)
	var replayed []transition
	for i, c := range script {
		if ev := a.Observe(tick(i, period), c); ev != AlertNone {
			replayed = append(replayed, transition{i, ev})
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) < 10 {
		t.Fatalf("session too quiet to compare: %d served transitions", len(served))
	}
	if fmt.Sprint(served) != fmt.Sprint(replayed) {
		t.Fatalf("served transitions %v\n!= offline replay %v", served, replayed)
	}

	// EvaluateAlerts scores the same stream: with all-normal truth every
	// raise is false; with all-distracted truth the one episode is detected
	// at the first raise.
	raises := 0
	for _, tr := range served {
		if tr.ev == AlertRaised {
			raises++
		}
	}
	truth := make([]int, len(script))
	r, err := EvaluateAlerts(truth, script, period, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.FalseAlerts != raises || r.Episodes != 0 {
		t.Fatalf("all-normal report = %+v, want %d false alerts", r, raises)
	}
	for i := range truth {
		truth[i] = 1
	}
	if r, err = EvaluateAlerts(truth, script, period, cfg); err != nil {
		t.Fatal(err)
	}
	if r.Episodes != 1 || r.Detected != 1 || r.FalseAlerts != 0 || r.MeanDetectionDelay != float64(served[0].window) {
		t.Fatalf("all-distracted report = %+v, want detection at window %d", r, served[0].window)
	}
}
