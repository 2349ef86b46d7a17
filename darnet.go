package darnet

import (
	"io"
	"math/rand"
	"time"

	"darnet/internal/bayes"
	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/metrics"
	"darnet/internal/nn"
	"darnet/internal/privacy"
	"darnet/internal/stream"
	"darnet/internal/synth"
	"darnet/internal/tsdb"
	"darnet/internal/vision"
	"darnet/internal/wire"
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
	// TaggedFrame is a distorted frame tagged with its level.
	TaggedFrame = privacy.TaggedFrame
	// DCNNRouter dispatches tagged frames to level-specific classifiers.
	DCNNRouter = privacy.Router
	// DistillConfig controls dCNN training.
	DistillConfig = privacy.DistillConfig

	// Agent is a sensor collection agent.
	Agent = collect.Agent
	// AgentConfig configures a collection agent.
	AgentConfig = collect.AgentConfig
	// Controller is the centralized collection controller.
	Controller = collect.Controller
	// Sensor is one pollable device channel.
	Sensor = collect.Sensor
	// SensorFunc adapts a function to the Sensor interface.
	SensorFunc = collect.SensorFunc
	// ProcessingPolicy decides local vs remote processing.
	ProcessingPolicy = collect.ProcessingPolicy
	// NetworkConditions summarize the uplink.
	NetworkConditions = collect.NetworkConditions
	// TimedFrame is a stored camera frame with its capture timestamp.
	TimedFrame = collect.TimedFrame
	// WireConn frames protocol messages over a transport stream.
	WireConn = wire.Conn
	// DriftClock simulates a drifting device clock.
	DriftClock = collect.DriftClock
	// TimeSource yields reference time in milliseconds.
	TimeSource = collect.TimeSource
	// ManualTime is a manually advanced time source for tests/simulations.
	ManualTime = collect.ManualTime
	// TSDB is the controller's time-series store.
	TSDB = tsdb.DB
	// AgentRunner drives an agent in real time on a managed goroutine.
	AgentRunner = collect.Runner
	// SessionScript models the paper's scripted collection protocol.
	SessionScript = collect.SessionScript
	// ScriptSegment is one scripted activity segment.
	ScriptSegment = collect.ScriptSegment

	// Network is a trainable feed-forward network (the CNN substrate).
	Network = nn.Sequential

	// MultiCombiner fuses any number of modality distributions (the paper's
	// "extensible to more modalities" claim realized).
	MultiCombiner = bayes.MultiCombiner

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
	// AlertReport scores episode-level alerting behaviour.
	AlertReport = stream.AlertReport
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

// NewMultiCombiner returns an unfitted N-parent Bayesian Network combiner
// over parents with the given outcome arities.
func NewMultiCombiner(classes int, arities []int) (*MultiCombiner, error) {
	return bayes.NewMultiCombiner(classes, arities)
}

// ECE computes the expected calibration error of probabilistic predictions
// over the given number of confidence bins.
func ECE(probs [][]float64, labels []int, bins int) (float64, error) {
	return metrics.ECE(probs, labels, bins)
}

// EvaluateAlerts replays a session's window classifications, window i at
// time i·period, through the Alerter darnetd serves and scores episode-level
// detection and false-alert behaviour against the ground truth.
func EvaluateAlerts(truth []int, preds []*Classification, period time.Duration, cfg AlertConfig) (AlertReport, error) {
	return stream.EvaluateAlerts(truth, preds, period, cfg)
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

// PaperDistortionRatios are the paper's 300×300-source ratios (3/6/12).
func PaperDistortionRatios() DistortionRatios { return privacy.PaperRatios() }

// CompactDistortionRatios are the ratios used for this reproduction's 32×32
// frames (see privacy.CompactRatios for the rationale).
func CompactDistortionRatios() DistortionRatios { return privacy.CompactRatios() }

// Distort applies a privacy distortion level to a frame.
func Distort(img *Image, level DistortionLevel, ratios DistortionRatios) (*TaggedFrame, error) {
	return privacy.Distort(img, level, ratios)
}

// DefaultDistillConfig returns the calibrated dCNN distillation defaults.
func DefaultDistillConfig() DistillConfig { return privacy.DefaultDistillConfig() }

// Distill trains a dCNN student for one distortion level from a trained
// teacher, unsupervised (paper §4.3).
func Distill(teacher *Network, build func(*rand.Rand) (*Network, error), ds *Dataset, level DistortionLevel, ratios DistortionRatios, rng *rand.Rand, cfg DistillConfig) (*Network, error) {
	return privacy.Distill(teacher, privacy.StudentBuilder(build), ds.Frames(), ds.ImgW, ds.ImgH, level, ratios, rng, cfg)
}

// NewDCNNRouter returns an empty distortion-level router.
func NewDCNNRouter() *DCNNRouter { return privacy.NewRouter() }

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

// LoadEngine reconstructs a trained engine from a snapshot written by
// (*Engine).Save.
func LoadEngine(r io.Reader) (*Engine, error) { return core.LoadEngine(r) }

// LoadDataset reads a dataset written by (*Dataset).Save, so the exact
// generated data can be shared across runs and processes.
func LoadDataset(r io.Reader) (*Dataset, error) { return synth.LoadDataset(r) }

// DefaultProcessingPolicy returns the calibrated local/remote policy.
func DefaultProcessingPolicy() ProcessingPolicy { return collect.DefaultProcessingPolicy() }

// FrameSensor adapts a frame source into a camera-agent sensor on the
// reserved frame channel.
func FrameSensor(current func() []float64) Sensor { return collect.FrameSensor(current) }

// NewWireConn frames protocol messages over rw (TCP in deployment).
func NewWireConn(rw io.ReadWriter) *WireConn { return wire.NewConn(rw) }

// NewTSDB returns an empty time-series store.
func NewTSDB() *TSDB { return tsdb.New() }

// NewController returns a collection controller storing into db with master
// time from source.
func NewController(db *TSDB, source TimeSource) *Controller {
	return collect.NewController(db, source)
}

// NewDriftClock returns a device clock over source with the given fractional
// drift rate.
func NewDriftClock(source TimeSource, drift float64) *DriftClock {
	return collect.NewDriftClock(source, drift)
}

// NewManualTime returns a manually advanced time source starting at start.
func NewManualTime(start int64) *ManualTime { return collect.NewManualTime(start) }

// NewAgent returns a collection agent over the given transport connection.
func NewAgent(cfg AgentConfig, clock *DriftClock, sensors []Sensor, conn *WireConn) (*Agent, error) {
	return collect.NewAgent(cfg, clock, sensors, conn)
}

// IMUSensors adapts a sample source into the four IMU collection sensors.
func IMUSensors(current func() IMUSample) []Sensor { return collect.IMUSensors(current) }

// StartAgentRunner sends the agent's hello and starts a managed real-time
// polling/flushing loop; stop it with Shutdown.
func StartAgentRunner(agent *Agent, flushEvery time.Duration, onPoll func()) (*AgentRunner, error) {
	return collect.StartRunner(agent, flushEvery, onPoll)
}

// NewSessionScript builds a scripted collection session from segments.
func NewSessionScript(segments ...ScriptSegment) (*SessionScript, error) {
	return collect.NewSessionScript(segments...)
}

// RemoteClassify ships one aligned (frame, window) observation to a server
// running (*Engine).ServeClassify — the paper's remote configuration — and
// returns the fused classification.
func RemoteClassify(conn *WireConn, frame []float64, w, h int, distortion DistortionLevel, window IMUWindow) (*Classification, error) {
	return core.RemoteClassify(conn, frame, w, h, uint8(distortion), window)
}
