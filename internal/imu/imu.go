// Package imu provides the inertial-measurement substrate: the sensor sample
// type aggregating the four sensors DarNet's collection agent registers
// (accelerometer, gyroscope, gravity, rotation vector), sliding-window
// segmentation at the paper's 4 Hz × 5 s = 20-step geometry, and per-channel
// standardization for the sequence models.
package imu

import (
	"fmt"
	"math"

	"darnet/internal/tensor"
)

// FeatureDim is the per-step feature width: accelerometer (3) + gyroscope (3)
// + gravity (3) + rotation quaternion (4).
const FeatureDim = 13

// Paper window geometry: 4 Hz sampling over a 5-second window.
const (
	WindowSize   = 20 // samples per classification window
	SampleRateHz = 4
)

// Sample is one time step of fused IMU readings.
type Sample struct {
	TimestampMillis int64
	Accel           [3]float64
	Gyro            [3]float64
	Gravity         [3]float64
	Rotation        [4]float64 // unit quaternion (x, y, z, w)
}

// Features flattens the sample into a FeatureDim-wide row.
func (s Sample) Features() []float64 {
	f := make([]float64, FeatureDim)
	s.featuresInto(f)
	return f
}

// featuresInto writes the sample's FeatureDim features into f.
func (s *Sample) featuresInto(f []float64) {
	copy(f[0:3], s.Accel[:])
	copy(f[3:6], s.Gyro[:])
	copy(f[6:9], s.Gravity[:])
	copy(f[9:13], s.Rotation[:])
}

// SampleFromFeatures is the inverse of Features: it rebuilds the sample
// stamped ts from a FeatureDim-wide row.
func SampleFromFeatures(ts int64, row []float64) Sample {
	s := Sample{TimestampMillis: ts}
	copy(s.Accel[:], row[0:3])
	copy(s.Gyro[:], row[3:6])
	copy(s.Gravity[:], row[6:9])
	copy(s.Rotation[:], row[9:13])
	return s
}

// Window is a fixed-length run of consecutive samples, the unit the sequence
// models classify.
type Window struct {
	Samples []Sample
}

// Tensor converts the window into a (len, FeatureDim) sequence tensor.
func (w Window) Tensor() *tensor.Tensor {
	out := tensor.New(len(w.Samples), FeatureDim)
	for t, s := range w.Samples {
		copy(out.Row(t), s.Features())
	}
	return out
}

// Flatten converts the window into a single row of length len*FeatureDim —
// the representation the SVM baseline consumes.
func (w Window) Flatten() []float64 {
	out := make([]float64, 0, len(w.Samples)*FeatureDim)
	for _, s := range w.Samples {
		out = append(out, s.Features()...)
	}
	return out
}

// Stats holds per-feature mean and standard deviation fitted on training
// windows, applied identically to train and test splits.
type Stats struct {
	Mean [FeatureDim]float64
	Std  [FeatureDim]float64
}

// FitStats computes per-feature statistics across all steps of all windows.
// Zero-variance features get a standard deviation of 1.
func FitStats(windows []Window) (*Stats, error) {
	steps := 0
	for _, w := range windows {
		steps += len(w.Samples)
	}
	if steps == 0 {
		return nil, fmt.Errorf("imu: cannot fit stats on empty window set")
	}
	st := &Stats{}
	for _, w := range windows {
		for _, s := range w.Samples {
			for j, v := range s.Features() {
				st.Mean[j] += v
			}
		}
	}
	for j := range st.Mean {
		st.Mean[j] /= float64(steps)
	}
	for _, w := range windows {
		for _, s := range w.Samples {
			for j, v := range s.Features() {
				d := v - st.Mean[j]
				st.Std[j] += d * d
			}
		}
	}
	for j := range st.Std {
		st.Std[j] = math.Sqrt(st.Std[j] / float64(steps))
		if st.Std[j] < 1e-12 {
			st.Std[j] = 1
		}
	}
	return st, nil
}

// Normalize returns a standardized copy of the window's sequence tensor.
func (st *Stats) Normalize(w Window) *tensor.Tensor {
	out := tensor.New(len(w.Samples), FeatureDim)
	st.NormalizeInto(out, w)
	return out
}

// NormalizeInto writes the window's standardized (len, FeatureDim) sequence
// into dst, which must have that shape. It allocates nothing, so serving
// can normalize into reused scratch.
func (st *Stats) NormalizeInto(dst *tensor.Tensor, w Window) {
	if dst.Dims() != 2 || dst.Dim(0) != len(w.Samples) || dst.Dim(1) != FeatureDim {
		panic(fmt.Sprintf("imu: normalize a %d-step window into a %v tensor", len(w.Samples), dst.Shape()))
	}
	for t := range w.Samples {
		row := dst.Row(t)
		w.Samples[t].featuresInto(row)
		for j, v := range row {
			row[j] = (v - st.Mean[j]) / st.Std[j]
		}
	}
}

// NormalizeFlat returns a standardized flattened row for the SVM baseline.
func (st *Stats) NormalizeFlat(w Window) []float64 {
	out := w.Flatten()
	for i, v := range out {
		j := i % FeatureDim
		out[i] = (v - st.Mean[j]) / st.Std[j]
	}
	return out
}
