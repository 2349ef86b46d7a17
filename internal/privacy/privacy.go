// Package privacy implements DarNet's privacy-preserving analytics path
// (paper §4.3, Figures 3–4): the distortion module that nearest-neighbor
// down-samples frames before they leave the vehicle, the tagged routing of
// distorted frames to the matching classifier, and the unsupervised
// denoising-CNN (dCNN) training methodology — a student CNN initialized from
// the teacher's weights and trained to reproduce the teacher's outputs on
// down-sampled inputs by minimizing the L2 distance between output vectors.
package privacy

import (
	"fmt"
	"math/rand"

	"darnet/internal/collect"
	"darnet/internal/nn"
	"darnet/internal/tensor"
	"darnet/internal/vision"
)

// Ratios maps distortion levels to linear down-sampling factors.
type Ratios struct {
	Low    int
	Medium int
	High   int
}

// CompactRatios are the factors used for this reproduction's 32×32 frames.
// The paper's ratios (3, 6, 12) assume 300×300 sources, where even the
// 25×25 "high" path keeps a recognizable blocky silhouette (Figure 4);
// applying 12× to a 32×32 frame would leave 2×2 pixels — information-free.
// CompactRatios keep a comparable fraction of the scene's pose at each
// level: 16×16 (nearly lossless), ~10×10 (pose barely visible), 8×8
// (almost unidentifiable), mirroring the perceptual ladder of Figure 4.
func CompactRatios() Ratios { return Ratios{Low: 2, Medium: 3, High: 4} }

// For returns the ratio for one level (1 for DistortNone).
func (r Ratios) For(level collect.DistortionLevel) (int, error) {
	switch level {
	case collect.DistortNone:
		return 1, nil
	case collect.DistortLow:
		return r.Low, nil
	case collect.DistortMedium:
		return r.Medium, nil
	case collect.DistortHigh:
		return r.High, nil
	default:
		return 0, fmt.Errorf("privacy: unknown distortion level %d", level)
	}
}

// TaggedFrame is a distorted frame tagged with its distortion level, as the
// distortion module emits it (§4.3 "tags the video with the down-sampling
// rate").
type TaggedFrame struct {
	Level collect.DistortionLevel
	Image *vision.Image
}

// Distort down-samples a frame at the given level and re-expands it to the
// original resolution with nearest-neighbor sampling, producing the blocky
// frames of Figure 4 at the geometry the classifiers consume.
func Distort(img *vision.Image, level collect.DistortionLevel, ratios Ratios) (*TaggedFrame, error) {
	ratio, err := ratios.For(level)
	if err != nil {
		return nil, err
	}
	if ratio < 1 {
		return nil, fmt.Errorf("privacy: non-positive ratio %d for level %v", ratio, level)
	}
	if ratio == 1 {
		return &TaggedFrame{Level: level, Image: img.Clone()}, nil
	}
	w := max(1, img.W/ratio)
	h := max(1, img.H/ratio)
	small, err := img.DownsampleNearest(w, h)
	if err != nil {
		return nil, fmt.Errorf("privacy: distort: %w", err)
	}
	big, err := small.UpsampleNearest(img.W, img.H)
	if err != nil {
		return nil, fmt.Errorf("privacy: distort: %w", err)
	}
	return &TaggedFrame{Level: level, Image: big}, nil
}

// DistortRows applies Distort to every row of a flattened frame matrix and
// returns the distorted matrix at the same geometry.
func DistortRows(frames *tensor.Tensor, w, h int, level collect.DistortionLevel, ratios Ratios) (*tensor.Tensor, error) {
	if frames.Dims() != 2 || frames.Dim(1) != w*h {
		return nil, fmt.Errorf("privacy: frame matrix width %d != %dx%d", frames.Dim(frames.Dims()-1), w, h)
	}
	out := tensor.New(frames.Shape()...)
	img := vision.MustNewImage(w, h)
	for i := 0; i < frames.Dim(0); i++ {
		copy(img.Pix, frames.Row(i))
		tf, err := Distort(img, level, ratios)
		if err != nil {
			return nil, err
		}
		copy(out.Row(i), tf.Image.Pix)
	}
	return out, nil
}

// Router picks the classifier matching a frame's distortion tag — the remote
// server's dispatch in Figure 3.
type Router struct {
	models map[collect.DistortionLevel]*nn.Sequential
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{models: make(map[collect.DistortionLevel]*nn.Sequential)}
}

// Register installs the classifier for one distortion level.
func (r *Router) Register(level collect.DistortionLevel, model *nn.Sequential) {
	r.models[level] = model
}

// Classify routes a tagged frame to its classifier and returns the class
// probabilities.
func (r *Router) Classify(f *TaggedFrame) ([]float64, error) {
	model, ok := r.models[f.Level]
	if !ok {
		return nil, fmt.Errorf("privacy: no classifier registered for distortion level %v", f.Level)
	}
	return model.Probs(f.Image.ToFeatures())
}

// Levels returns the registered distortion levels.
func (r *Router) Levels() []collect.DistortionLevel {
	out := make([]collect.DistortionLevel, 0, len(r.models))
	for l := range r.models {
		out = append(out, l)
	}
	return out
}

// DistillConfig controls dCNN training.
type DistillConfig struct {
	Epochs    int
	LR        float64
	BatchSize int
	// PlainSGD uses plain momentum SGD (the paper's stated optimizer)
	// instead of the default Adam variant of stochastic gradient descent.
	PlainSGD bool
	// LRStepEvery and LRStepFactor implement step decay: every LRStepEvery
	// epochs the learning rate is multiplied by LRStepFactor (disabled when
	// LRStepEvery is 0).
	LRStepEvery  int
	LRStepFactor float64
	// Temperature switches the objective from the paper's L2 on output
	// vectors (0, the default) to softened cross-entropy knowledge
	// distillation at the given temperature.
	Temperature float64
	// InitFromTeacher copies the teacher's weights into the student before
	// distillation (the paper's initialization methodology); disabling it is
	// the ablation.
	InitFromTeacher bool
	// Progress, when non-nil, receives per-epoch mean L2 losses.
	Progress func(epoch int, loss float64)
}

// DefaultDistillConfig returns the calibrated defaults.
func DefaultDistillConfig() DistillConfig {
	return DistillConfig{Epochs: 12, LR: 0.001, BatchSize: 32, InitFromTeacher: true}
}

// StudentBuilder constructs an untrained network architecturally identical to
// the teacher (the paper reuses the Inception-V3 architecture for dCNNs).
type StudentBuilder func(rng *rand.Rand) (*nn.Sequential, error)

// Distill trains a dCNN student for one distortion level following the
// paper's four-step methodology: (1) record the teacher's outputs on the
// original frames — the original image never has to leave the device; (2)
// down-sample the frames; (3) aggregate distorted frames, tags, and teacher
// outputs at the server; (4) train the student to minimize the L2 euclidean
// distance between its outputs on distorted frames and the teacher's
// recorded outputs, using stochastic gradient descent. No labels are used.
func Distill(teacher *nn.Sequential, build StudentBuilder, frames *tensor.Tensor, w, h int, level collect.DistortionLevel, ratios Ratios, rng *rand.Rand, cfg DistillConfig) (*nn.Sequential, error) {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("privacy: invalid distill config %+v", cfg)
	}
	n := frames.Dim(0)
	if n == 0 {
		return nil, fmt.Errorf("privacy: no frames to distill from")
	}

	// Step 1: record the teacher's final-layer outputs (logits) on the
	// original frames.
	targets, err := teacher.Predict(frames)
	if err != nil {
		return nil, fmt.Errorf("privacy: teacher outputs: %w", err)
	}

	// Step 2: the distortion module down-samples the frames.
	distorted, err := DistortRows(frames, w, h, level, ratios)
	if err != nil {
		return nil, err
	}

	// Step 3–4: train the student on (distorted, teacher output) pairs.
	student, err := build(rng)
	if err != nil {
		return nil, fmt.Errorf("privacy: build student: %w", err)
	}
	if cfg.InitFromTeacher {
		if err := nn.CopyParams(student.Params(), teacher.Params()); err != nil {
			return nil, fmt.Errorf("privacy: init from teacher: %w", err)
		}
	}

	var opt nn.Optimizer
	var sgd *nn.SGD
	var adam *nn.Adam
	if cfg.PlainSGD {
		sgd = nn.NewSGD(cfg.LR)
		sgd.Momentum = 0.9
		opt = sgd
	} else {
		adam = nn.NewAdam(cfg.LR)
		opt = adam
	}
	stepLR := func(epoch int) {
		if cfg.LRStepEvery <= 0 || cfg.LRStepFactor <= 0 || epoch == 0 || epoch%cfg.LRStepEvery != 0 {
			return
		}
		if sgd != nil {
			sgd.LR *= cfg.LRStepFactor
		}
		if adam != nil {
			adam.LR *= cfg.LRStepFactor
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	width := frames.Dim(1)
	classes := targets.Dim(1)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		stepLR(epoch)
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		total, batches := 0.0, 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, n)
			bs := end - start
			bx := tensor.New(bs, width)
			bt := tensor.New(bs, classes)
			for i := 0; i < bs; i++ {
				src := order[start+i]
				copy(bx.Row(i), distorted.Row(src))
				copy(bt.Row(i), targets.Row(src))
			}
			student.ZeroGrad()
			logits, err := student.Forward(bx, true)
			if err != nil {
				return nil, fmt.Errorf("privacy: student forward: %w", err)
			}
			var loss float64
			var dLogits *tensor.Tensor
			if cfg.Temperature > 0 {
				loss, dLogits, err = nn.DistillationLoss(logits, bt, cfg.Temperature)
			} else {
				loss, dLogits, err = nn.L2Distance(logits, bt)
			}
			if err != nil {
				return nil, err
			}
			if _, err := student.Backward(dLogits); err != nil {
				return nil, fmt.Errorf("privacy: student backward: %w", err)
			}
			if _, err := nn.ClipGradNorm(student.Params(), 5); err != nil {
				return nil, err
			}
			opt.Step(student.Params())
			total += loss
			batches++
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, total/float64(batches))
		}
	}
	return student, nil
}
