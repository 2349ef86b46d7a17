package stream

import (
	"darnet/internal/core"
	"darnet/internal/imu"
)

// EngineTicker drives a trained core.Engine for one agent's stream: IMU
// samples fill a tumbling window of imu.WindowSize, and a completed window
// is fused with the stream's newest frame through the Bayesian Network —
// composing with the engine's degraded modes when a modality has not been
// seen at all. A decision fuses one frame's CNN distribution, so the CNN
// runs only for that frame, beside the window's RNN: a frame tick checks
// the frame (core.Engine.CheckFrame) and keeps a copy of it as pending,
// and the next completed window runs core.Engine.ClassifyUntraced on
// (pending frame, window). A window with no frame pending fuses the last
// frame's distribution again (WindowProbs, then Fuse), which is RNN-only
// before any frame arrives. Each decision equals ClassifyCtx(frame, window)
// for the last frame not skipped and the completed window.
type EngineTicker struct {
	eng     *core.Engine
	window  []imu.Sample // the partial window, reused across windows
	pending []float64    // a checked frame no decision has fused yet; empty when none
	lastCNN []float64    // the CNN distribution of the last fused frame
}

// EngineTickerFactory returns a TickerFactory over a shared trained engine.
// Each call builds a ticker with an empty window, so watchdog restarts reset
// the in-flight window. The model weights are shared across agents and only
// read: inference keeps its scratch in per-call workspaces from each model's
// pool, so any number of pipelines may run on one engine, as long as nothing
// trains it meanwhile.
func EngineTickerFactory(eng *core.Engine) TickerFactory {
	return func() (Ticker, error) {
		return &EngineTicker{eng: eng, window: make([]imu.Sample, 0, imu.WindowSize)}, nil
	}
}

// Tick implements Ticker. A frame not skipped is checked at once, so a
// rejected frame fails its own tick (and the sample it came with is
// dropped), but its CNN pass waits for the window that fuses it. The
// frame's pixels are copied, so the caller may reuse the slice. An error
// from that CNN pass, like any window error, fails the window's tick and
// leaves the frame pending for the next window. skipFrame reuses the
// pending frame or the last distribution, and is ignored until one exists.
func (t *EngineTicker) Tick(sample *imu.Sample, frame []float64, skipFrame bool) (*core.Classification, bool, error) {
	skipped := false
	if frame != nil {
		if skipFrame && (len(t.pending) > 0 || t.lastCNN != nil) {
			skipped = true
		} else {
			if err := t.eng.CheckFrame(frame); err != nil {
				return nil, false, err
			}
			t.pending = append(t.pending[:0], frame...)
		}
	}
	if sample == nil {
		return nil, skipped, nil
	}
	t.window = append(t.window, *sample)
	if len(t.window) < imu.WindowSize {
		return nil, skipped, nil
	}
	// Reset before classifying, so a window that fails cannot wedge the
	// ticker: the next sample starts the next window either way. The
	// samples stay readable until the next Tick appends over them.
	window := imu.Window{Samples: t.window}
	t.window = t.window[:0]
	if len(t.pending) > 0 {
		cls, err := t.eng.ClassifyUntraced(t.pending, window)
		if err != nil {
			return nil, skipped, err
		}
		t.lastCNN, t.pending = cls.CNNProbs, t.pending[:0]
		return cls, skipped, nil
	}
	rnnProbs, err := t.eng.WindowProbs(window)
	if err != nil {
		return nil, skipped, err
	}
	cls, err := t.eng.Fuse(t.lastCNN, rnnProbs)
	if err != nil {
		return nil, skipped, err
	}
	return cls, skipped, nil
}
