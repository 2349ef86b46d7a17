package stream

import (
	"time"

	"darnet/internal/collect"
	"darnet/internal/imu"
	"darnet/internal/telemetry"
	"darnet/internal/wire"
)

// Input is one classify-stage work item: an assembled IMU sample, a camera
// frame, or both (when the two channels share a timestamp).
type Input struct {
	Sample *imu.Sample
	Frame  []float64
	// At is the admission time, the start of the alert-latency measurement.
	At time.Time
	// Weight is the number of wire readings this input represents, so that
	// shedding one queued item accounts for every reading it carried.
	Weight int
	// Trace is the admitting stream_offer span's context (zero when the batch
	// carried none): the classify tick joins it, so the queue dwell between
	// admission (At) and processing shows up in the distributed trace.
	Trace telemetry.SpanContext
}

// Sample-channel bits for partial assembly.
const (
	maskAccel = 1 << iota
	maskGyro
	maskGravity
	maskRotation
	maskComplete = maskAccel | maskGyro | maskGravity | maskRotation
)

// maxPartial bounds the assembler's pending set: a chaos-corrupted or
// reordered stream cannot grow memory by leaving samples forever incomplete.
const maxPartial = 64

// assembler reassembles wire readings into classify inputs. The standard IMU
// agent polls its four sensors in one tick, stamping them with the same
// timestamp, so grouping by timestamp recovers the imu.Sample; the reserved
// frame channel and a pre-fused 13-wide "imu" channel pass through directly.
// Not safe for concurrent use — the pipeline guards it.
type assembler struct {
	pending map[int64]*partialSample
	order   []int64 // insertion order for bounded eviction
}

type partialSample struct {
	sample imu.Sample
	mask   uint8
}

func newAssembler() *assembler {
	return &assembler{pending: make(map[int64]*partialSample)}
}

// push consumes one reading and reports the completed input, if any. The
// bool is false while a sample is still partial or the reading is ignored.
func (a *assembler) push(r wire.Reading, at time.Time) (Input, bool) {
	switch {
	case r.Sensor == collect.FrameSensorName:
		return Input{Frame: append([]float64(nil), r.Values...), At: at, Weight: 1}, true
	case r.Sensor == "imu" && len(r.Values) == imu.FeatureDim:
		s := imu.SampleFromFeatures(r.TimestampMillis, r.Values)
		return Input{Sample: &s, At: at, Weight: 1}, true
	case r.Sensor == "accel" && len(r.Values) == 3:
		return a.fill(r, at, maskAccel, func(p *partialSample) { copy(p.sample.Accel[:], r.Values) })
	case r.Sensor == "gyro" && len(r.Values) == 3:
		return a.fill(r, at, maskGyro, func(p *partialSample) { copy(p.sample.Gyro[:], r.Values) })
	case r.Sensor == "gravity" && len(r.Values) == 3:
		return a.fill(r, at, maskGravity, func(p *partialSample) { copy(p.sample.Gravity[:], r.Values) })
	case r.Sensor == "rotation" && len(r.Values) == 4:
		return a.fill(r, at, maskRotation, func(p *partialSample) { copy(p.sample.Rotation[:], r.Values) })
	default:
		mReadingsIgnored.Inc()
		return Input{}, false
	}
}

func (a *assembler) fill(r wire.Reading, at time.Time, bit uint8, set func(*partialSample)) (Input, bool) {
	p, ok := a.pending[r.TimestampMillis]
	if !ok {
		p = &partialSample{sample: imu.Sample{TimestampMillis: r.TimestampMillis}}
		a.pending[r.TimestampMillis] = p
		a.order = append(a.order, r.TimestampMillis)
		a.evict()
	}
	set(p)
	p.mask |= bit
	if p.mask != maskComplete {
		return Input{}, false
	}
	delete(a.pending, r.TimestampMillis)
	a.removeOrder(r.TimestampMillis)
	return Input{Sample: &p.sample, At: at, Weight: 4}, true
}

// removeOrder drops a completed timestamp from the eviction order so the
// order slice tracks the pending set instead of growing with every sample.
func (a *assembler) removeOrder(ts int64) {
	for i, v := range a.order {
		if v == ts {
			a.order = append(a.order[:i], a.order[i+1:]...)
			return
		}
	}
}

// evict drops the oldest still-pending partial once the set exceeds its
// bound, counting the loss instead of growing without limit.
func (a *assembler) evict() {
	for len(a.pending) > maxPartial {
		for len(a.order) > 0 {
			ts := a.order[0]
			a.order = a.order[1:]
			if _, ok := a.pending[ts]; ok {
				delete(a.pending, ts)
				mPartialDropped.Inc()
				break
			}
		}
	}
}
