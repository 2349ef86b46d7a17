package darnet

import (
	"io"
	"math/rand"

	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/metrics"
	"darnet/internal/nn"
	"darnet/internal/privacy"
	"darnet/internal/stream"
	"darnet/internal/synth"
	"darnet/internal/vision"
)

// Driving behaviour classes (paper Table 1).
const (
	NormalDriving  = synth.NormalDriving
	Talking        = synth.Talking
	Texting        = synth.Texting
	EatingDrinking = synth.EatingDrinking
	HairMakeup     = synth.HairMakeup
	Reaching       = synth.Reaching

	// NumClasses is the size of the full driving-behaviour class space.
	NumClasses = synth.NumClasses
	// NumIMUClasses is the size of the IMU class space (normal/talking/texting).
	NumIMUClasses = synth.NumIMUClasses
)

// Re-exported core types. These aliases are the public names for the
// library's building blocks; their methods are documented on the aliased
// types.
type (
	// Class is one of the six driving behaviours.
	Class = synth.Class
	// Dataset is a labelled multi-modal sample collection.
	Dataset = synth.Dataset
	// DatasetSample is one aligned frame + IMU window observation.
	DatasetSample = synth.Sample
	// DatasetConfig controls 6-class (Table 1) dataset generation.
	DatasetConfig = synth.Config
	// Dataset18Config controls 18-class (privacy) dataset generation.
	Dataset18Config = synth.Config18
	// AmbiguityConfig tunes image-channel confusability.
	AmbiguityConfig = synth.AmbiguityConfig
	// IMUGenConfig tunes IMU trace realism.
	IMUGenConfig = synth.IMUGenConfig

	// Engine is the trained analytics engine (CNN + RNN + SVM + combiners).
	Engine = core.Engine
	// EngineData is the modality-aligned dataset form the engine consumes.
	EngineData = core.Data
	// EngineTrainConfig controls end-to-end engine training.
	EngineTrainConfig = core.TrainConfig
	// Evaluation holds Table 2 / Figure 5 results.
	Evaluation = core.Evaluation
	// Classification is one fused multi-modal inference.
	Classification = core.Classification
	// CNNConfig parameterizes the MicroInception frame classifier.
	CNNConfig = core.CNNConfig

	// Image is a grayscale frame.
	Image = vision.Image
	// IMUSample is one fused IMU reading.
	IMUSample = imu.Sample
	// IMUWindow is a fixed-length run of IMU samples.
	IMUWindow = imu.Window

	// ConfusionMatrix counts (true, predicted) pairs.
	ConfusionMatrix = metrics.ConfusionMatrix

	// DistortionLevel is a privacy down-sampling level.
	DistortionLevel = collect.DistortionLevel
	// DistortionRatios maps levels to down-sampling factors.
	DistortionRatios = privacy.Ratios
	// DistillConfig controls dCNN training.
	DistillConfig = privacy.DistillConfig

	// Network is a trainable feed-forward network (the CNN substrate).
	Network = nn.Sequential

	// Alerter is the evidence-debouncing alert state machine darnetd serves:
	// it raises once 1 − P(normal), halved for degraded classifications, has
	// stayed above the enter threshold for the dwell, and clears once it has
	// stayed below the exit threshold as long.
	Alerter = stream.Alerter
	// AlertConfig sets the normal class, the enter/exit score band and the
	// dwell.
	AlertConfig = stream.AlertConfig
	// AlertEvent is an alert state transition.
	AlertEvent = stream.AlertEvent
)

// Alert state transitions.
const (
	AlertNone    = stream.AlertNone
	AlertRaised  = stream.AlertRaised
	AlertCleared = stream.AlertCleared
)

// NewAlerter fills cfg's defaults (enter 0.6, exit 0.4), validates it, and
// returns an alerter with no alert raised.
func NewAlerter(cfg AlertConfig) (*Alerter, error) {
	return stream.NewAlerter(cfg)
}

// Distortion levels (paper §4.3: none / 100×100 / 50×50 / 25×25 paths).
const (
	DistortNone   = collect.DistortNone
	DistortLow    = collect.DistortLow
	DistortMedium = collect.DistortMedium
	DistortHigh   = collect.DistortHigh
)

// ClassNames returns the paper's six class names in order.
func ClassNames() []string {
	out := make([]string, NumClasses)
	for c := 0; c < NumClasses; c++ {
		out[c] = Class(c).String()
	}
	return out
}

// DefaultDatasetConfig returns the calibrated 6-class generation defaults.
func DefaultDatasetConfig() DatasetConfig { return synth.DefaultConfig() }

// DefaultDataset18Config returns the calibrated 18-class generation defaults.
func DefaultDataset18Config() Dataset18Config { return synth.DefaultConfig18() }

// GenerateDataset produces the 6-class multi-modal dataset with Table 1
// class proportions.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) {
	return synth.GenerateTable1(cfg)
}

// Generate18ClassDataset produces the 18-class image-only dataset used by
// the privacy evaluation.
func Generate18ClassDataset(cfg Dataset18Config) (*Dataset, error) {
	return synth.Generate18Class(cfg)
}

// DefaultEngineTrainConfig returns the calibrated engine-training defaults.
func DefaultEngineTrainConfig() EngineTrainConfig { return core.DefaultTrainConfig() }

// TrainEngine trains the full analytics engine (frame CNN, IMU RNN, IMU SVM,
// and both Bayesian Network combiners) on a 6-class dataset.
func TrainEngine(train *Dataset, cfg EngineTrainConfig) (*Engine, error) {
	return core.Train(train.CoreData(), cfg)
}

// EvaluateEngine computes the paper's Table 2 / Figure 5 results on a test
// dataset.
func EvaluateEngine(eng *Engine, test *Dataset) (*Evaluation, error) {
	return eng.Evaluate(test.CoreData(), ClassNames())
}

// BuildFrameCNN constructs an untrained MicroInception frame classifier.
func BuildFrameCNN(rng *rand.Rand, w, h, classes int, cfg CNNConfig) (*Network, error) {
	return core.BuildFrameCNN(rng, w, h, classes, cfg)
}

// DefaultCNNConfig returns the calibrated CNN defaults.
func DefaultCNNConfig() CNNConfig { return core.DefaultCNNConfig() }

// CompactDistortionRatios are the ratios used for this reproduction's 32×32
// frames (see privacy.CompactRatios for the rationale).
func CompactDistortionRatios() DistortionRatios { return privacy.CompactRatios() }

// DefaultDistillConfig returns the calibrated dCNN distillation defaults.
func DefaultDistillConfig() DistillConfig { return privacy.DefaultDistillConfig() }

// Distill trains a dCNN student for one distortion level from a trained
// teacher, unsupervised (paper §4.3).
func Distill(teacher *Network, build func(*rand.Rand) (*Network, error), ds *Dataset, level DistortionLevel, ratios DistortionRatios, rng *rand.Rand, cfg DistillConfig) (*Network, error) {
	return privacy.Distill(teacher, privacy.StudentBuilder(build), ds.Frames(), ds.ImgW, ds.ImgH, level, ratios, rng, cfg)
}

// EvaluateNetwork returns Top-1 accuracy of a frame classifier on a dataset,
// optionally distorting the frames first (DistortNone evaluates clean).
func EvaluateNetwork(net *Network, ds *Dataset, level DistortionLevel, ratios DistortionRatios) (float64, error) {
	frames := ds.Frames()
	if level != DistortNone {
		var err error
		frames, err = privacy.DistortRows(frames, ds.ImgW, ds.ImgH, level, ratios)
		if err != nil {
			return 0, err
		}
	}
	return core.EvaluateCNNOnly(net, frames, ds.Labels())
}

// TrainNetwork trains a frame classifier on a dataset's frames with the
// calibrated Adam + weight-decay recipe. progress may be nil.
func TrainNetwork(net *Network, ds *Dataset, epochs int, seed int64, progress func(epoch int, loss float64)) error {
	rng := rand.New(rand.NewSource(seed))
	opt := nn.NewAdam(0.002)
	opt.WeightDecay = 1e-4
	_, err := nn.TrainClassifier(net, opt, rng, ds.Frames(), ds.Labels(), nn.TrainConfig{
		Epochs: epochs, BatchSize: 32, ClipNorm: 5,
		OnEpoch: func(e int, l float64) bool {
			if progress != nil {
				progress(e, l)
			}
			return true
		},
	})
	return err
}

// LoadDataset reads a dataset written by (*Dataset).Save, so the exact
// generated data can be shared across runs and processes.
func LoadDataset(r io.Reader) (*Dataset, error) { return synth.LoadDataset(r) }
