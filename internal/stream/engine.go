package stream

import (
	"darnet/internal/core"
	"darnet/internal/imu"
)

// EngineTicker drives a trained core.Engine for one agent's stream: frames
// run the CNN (or reuse the previous distribution under frame skipping), IMU
// samples advance the incremental RNN stream, and a completed window fuses
// both modalities through the Bayesian Network — composing with the engine's
// degraded modes when a modality has not been seen at all.
type EngineTicker struct {
	eng     *core.Engine
	imu     *core.IMUStream
	lastCNN []float64
}

// EngineTickerFactory returns a TickerFactory over a shared trained engine.
// Each call builds a fresh recurrent stream, so watchdog restarts reset the
// in-flight window. The model weights are shared across agents and only read:
// inference keeps its scratch in per-call workspaces from each model's pool
// (and in each stream's own state), so any number of pipelines may run on
// one engine, as long as nothing trains it meanwhile.
func EngineTickerFactory(eng *core.Engine) TickerFactory {
	return func() (Ticker, error) {
		st, err := eng.NewIMUStream()
		if err != nil {
			return nil, err
		}
		return &EngineTicker{eng: eng, imu: st}, nil
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
	ready, err := t.imu.Push(*sample)
	if err != nil {
		return nil, skipped, err
	}
	if !ready {
		return nil, skipped, nil
	}
	rnnProbs, err := t.imu.Classify()
	if err != nil {
		return nil, skipped, err
	}
	cls, err := t.eng.Fuse(t.lastCNN, rnnProbs)
	if err != nil {
		return nil, skipped, err
	}
	return cls, skipped, nil
}
