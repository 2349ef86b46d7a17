package stream

import (
	"fmt"
	"time"

	"darnet/internal/core"
)

// AlertConfig parameterizes the alert state machine. It debounces on
// *evidence*, not class labels: the distracted score of a classification is
// 1 − P(normal), discounted when the classification was degraded, so a
// flickering argmax between two distracted classes cannot flap the alert and
// a low-confidence single-modality window counts for less.
//
// Hysteresis is double: a score band (enter above Enter, exit below Exit,
// Enter > Exit) and a dwell time (the score must stay on the far side of the
// threshold for Dwell before the state flips). Both must be crossed, so
// alerts are flap-free by construction.
type AlertConfig struct {
	// NormalClass is the class index considered non-distracted.
	NormalClass int
	// Enter raises the alert once the distracted score has been ≥ Enter for
	// Dwell. Default 0.6.
	Enter float64
	// Exit clears the alert once the score has been ≤ Exit for Dwell.
	// Default 0.4.
	Exit float64
	// Dwell is the minimum sustained time on the far side of a threshold
	// before the state flips. Zero flips on the first qualifying window.
	Dwell time.Duration
}

func (c *AlertConfig) fillDefaults() {
	if c.Enter == 0 {
		c.Enter = 0.6
	}
	if c.Exit == 0 {
		c.Exit = 0.4
	}
}

func (c *AlertConfig) validate() error {
	if c.NormalClass < 0 {
		return fmt.Errorf("stream: negative normal class %d", c.NormalClass)
	}
	if c.Enter <= c.Exit {
		return fmt.Errorf("stream: alert enter threshold %v must exceed exit threshold %v (hysteresis band)", c.Enter, c.Exit)
	}
	if c.Dwell < 0 {
		return fmt.Errorf("stream: negative alert dwell %v", c.Dwell)
	}
	return nil
}

// AlertEvent describes a state change emitted by Observe.
type AlertEvent int

// Alert state transitions.
const (
	AlertNone AlertEvent = iota // no state change
	AlertRaised
	AlertCleared
)

// String implements fmt.Stringer.
func (e AlertEvent) String() string {
	switch e {
	case AlertNone:
		return "none"
	case AlertRaised:
		return "raised"
	case AlertCleared:
		return "cleared"
	default:
		return fmt.Sprintf("AlertEvent(%d)", int(e))
	}
}

// Alerter is the alert state machine: it turns the per-window
// classification stream into the paper's real-time driver/fleet-manager
// alerts (§1). Every Pipeline runs one, and EvaluateAlerts replays recorded
// classifications through the same type, so offline episode metrics describe
// exactly the alerts darnetd serves. Not safe for concurrent use; the
// pipeline serializes Observe under its alert mutex so the state survives
// watchdog worker restarts without double-raising.
type Alerter struct {
	cfg        AlertConfig
	active     bool
	enterSince time.Time // first observation of a qualifying enter score
	exitSince  time.Time // first observation of a qualifying exit score
}

// NewAlerter fills cfg's defaults, validates it, and returns an alerter with
// no alert raised.
func NewAlerter(cfg AlertConfig) (*Alerter, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Alerter{cfg: cfg}, nil
}

// score maps a classification onto distracted evidence in [0, 1].
func (a *Alerter) score(c *core.Classification) float64 {
	if a.cfg.NormalClass >= len(c.Probs) {
		return 0 // engine with fewer classes than configured: never alert
	}
	s := 1 - c.Probs[a.cfg.NormalClass]
	if c.Degraded() {
		s *= core.DegradedConfidenceDiscount
	}
	return s
}

// Observe feeds one completed-window classification, made at now, and
// returns the alert transition it caused (AlertNone if the state did not
// change).
func (a *Alerter) Observe(now time.Time, c *core.Classification) AlertEvent {
	s := a.score(c)
	if !a.active {
		if s >= a.cfg.Enter {
			if a.enterSince.IsZero() {
				a.enterSince = now
			}
			if now.Sub(a.enterSince) >= a.cfg.Dwell {
				a.active = true
				a.enterSince = time.Time{}
				a.exitSince = time.Time{}
				return AlertRaised
			}
		} else {
			a.enterSince = time.Time{}
		}
		return AlertNone
	}
	if s <= a.cfg.Exit {
		if a.exitSince.IsZero() {
			a.exitSince = now
		}
		if now.Sub(a.exitSince) >= a.cfg.Dwell {
			a.active = false
			a.enterSince = time.Time{}
			a.exitSince = time.Time{}
			return AlertCleared
		}
	} else {
		a.exitSince = time.Time{}
	}
	return AlertNone
}

// Active reports whether an alert is currently raised.
func (a *Alerter) Active() bool { return a.active }

// AlertReport quantifies the user-facing behaviour the paper's §5.2
// discussion raises ("a high false positive rate for distracted driving
// would diminish the user experience"): instead of per-window accuracy, it
// scores the alerter's *episode-level* behaviour on a session — how many
// true distraction episodes were alerted, how fast, and how many alerts
// fired during genuinely normal driving.
type AlertReport struct {
	// Episodes is the number of ground-truth distraction episodes (maximal
	// runs of consecutive non-normal windows).
	Episodes int
	// Detected is the number of episodes during which an alert was raised.
	Detected int
	// FalseAlerts counts alerts raised while the ground truth was normal.
	FalseAlerts int
	// MeanDetectionDelay is the mean number of windows between an episode's
	// onset and its alert, over detected episodes (0 when none detected).
	MeanDetectionDelay float64
}

// DetectionRate returns Detected/Episodes (0 when there are no episodes).
func (r AlertReport) DetectionRate() float64 {
	if r.Episodes == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Episodes)
}

// EvaluateAlerts replays a session's window classifications through an
// Alerter built from cfg — window i observed at time i·period — and scores
// the resulting alert stream against the ground truth. truth and preds must
// be aligned per window; cfg.NormalClass identifies non-distracted windows in
// the truth.
func EvaluateAlerts(truth []int, preds []*core.Classification, period time.Duration, cfg AlertConfig) (AlertReport, error) {
	if len(truth) != len(preds) {
		return AlertReport{}, fmt.Errorf("stream: %d true labels for %d classifications", len(truth), len(preds))
	}
	if period <= 0 {
		return AlertReport{}, fmt.Errorf("stream: window period must be positive, got %v", period)
	}
	alerter, err := NewAlerter(cfg)
	if err != nil {
		return AlertReport{}, err
	}
	// Any non-zero origin works: the Alerter reserves the zero Time for
	// "no dwell in progress".
	origin := time.Unix(0, 0)

	var report AlertReport
	inEpisode, detected := false, false
	episodeStart, delaySum := 0, 0
	for i, c := range preds {
		if c == nil {
			return AlertReport{}, fmt.Errorf("stream: window %d has no classification", i)
		}
		if truth[i] == cfg.NormalClass {
			inEpisode = false
		} else if !inEpisode {
			inEpisode, detected, episodeStart = true, false, i
			report.Episodes++
		}
		if alerter.Observe(origin.Add(time.Duration(i)*period), c) == AlertRaised && !inEpisode {
			report.FalseAlerts++
		}
		// An alert raised during the episode, or already active when it
		// began, detects it.
		if inEpisode && !detected && alerter.Active() {
			detected = true
			report.Detected++
			delaySum += i - episodeStart
		}
	}
	if report.Detected > 0 {
		report.MeanDetectionDelay = float64(delaySum) / float64(report.Detected)
	}
	return report, nil
}
