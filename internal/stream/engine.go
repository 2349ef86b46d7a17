package stream

import (
	"darnet/internal/core"
	"darnet/internal/imu"
)

// EngineTicker drives a trained core.Engine for one agent's stream: frames
// run the CNN (or reuse the previous distribution under frame skipping), IMU
// samples fill a tumbling window of imu.WindowSize, and a completed window
// runs the RNN and fuses both modalities through the Bayesian Network —
// composing with the engine's degraded modes when a modality has not been
// seen at all. It calls the same stage functions ClassifyCtx runs
// (FrameProbs, WindowProbs, Fuse), so each decision equals
// ClassifyCtx(frame, window) for the last frame and the completed window.
type EngineTicker struct {
	eng     *core.Engine
	window  []imu.Sample // the partial window, reused across windows
	lastCNN []float64
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

// Tick implements Ticker.
func (t *EngineTicker) Tick(sample *imu.Sample, frame []float64, skipFrame bool) (*core.Classification, bool, error) {
	skipped := false
	if frame != nil {
		if skipFrame && t.lastCNN != nil {
			skipped = true // reuse the previous CNN distribution
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
	// Reset before classifying, so a window that fails cannot wedge the
	// ticker: the next sample starts the next window either way. The
	// samples stay readable until the next Tick appends over them.
	window := imu.Window{Samples: t.window}
	t.window = t.window[:0]
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
