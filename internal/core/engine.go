package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"darnet/internal/bayes"
	"darnet/internal/collect"
	"darnet/internal/imu"
	"darnet/internal/nn"
	"darnet/internal/privacy"
	"darnet/internal/rnn"
	"darnet/internal/svm"
	"darnet/internal/telemetry"
	"darnet/internal/tensor"
	"darnet/internal/vision"
)

// Engine is the trained analytics engine: one model per modality plus the
// fitted Bayesian Network combiners.
type Engine struct {
	CNN      *nn.Sequential
	RNN      *rnn.Classifier
	SVM      *svm.Classifier
	IMUStats *imu.Stats

	// BNWithRNN and BNWithSVM are the fitted per-class Bayesian Network
	// combiners for the CNN+RNN and CNN+SVM ensembles.
	BNWithRNN *bayes.Combiner
	BNWithSVM *bayes.Combiner

	Classes    int
	IMUClasses int
	ClassMap   bayes.ClassMap
	ImgW, ImgH int

	// dcnn, when attached via SetDCNNRouter, serves the privacy path:
	// distortion-tagged frames route to the matching student model.
	dcnn *privacy.Router
}

// TrainConfig controls end-to-end engine training.
type TrainConfig struct {
	Seed      int64
	CNN       CNNConfig
	CNNEpochs int
	CNNLR     float64
	RNNHidden int // per-direction LSTM width (paper: 64)
	RNNLayers int // stacked BiLSTM layers (paper: 2)
	RNNEpochs int
	RNNLR     float64
	SVMEpochs int
	SVMLR     float64
	BatchSize int
	Smoothing float64 // Laplace smoothing for the BN CPTs
	// Progress, when non-nil, receives coarse progress events.
	Progress func(stage string, epoch int, loss float64)
}

// DefaultTrainConfig returns the calibrated defaults used by the paper
// reproduction benches.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Seed:      42,
		CNN:       DefaultCNNConfig(),
		CNNEpochs: 16,
		CNNLR:     0.002,
		RNNHidden: 64,
		RNNLayers: 2,
		RNNEpochs: 12,
		RNNLR:     0.003,
		SVMEpochs: 25,
		SVMLR:     0.01,
		BatchSize: 32,
		Smoothing: 1,
	}
}

func (c *TrainConfig) fillDefaults() {
	d := DefaultTrainConfig()
	if c.CNNEpochs <= 0 {
		c.CNNEpochs = d.CNNEpochs
	}
	if c.CNNLR <= 0 {
		c.CNNLR = d.CNNLR
	}
	if c.RNNHidden <= 0 {
		c.RNNHidden = d.RNNHidden
	}
	if c.RNNLayers <= 0 {
		c.RNNLayers = d.RNNLayers
	}
	if c.RNNEpochs <= 0 {
		c.RNNEpochs = d.RNNEpochs
	}
	if c.RNNLR <= 0 {
		c.RNNLR = d.RNNLR
	}
	if c.SVMEpochs <= 0 {
		c.SVMEpochs = d.SVMEpochs
	}
	if c.SVMLR <= 0 {
		c.SVMLR = d.SVMLR
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.Smoothing <= 0 {
		c.Smoothing = d.Smoothing
	}
	if c.CNN.StemChannels <= 0 {
		c.CNN = d.CNN
	}
}

func (c *TrainConfig) progress(stage string, epoch int, loss float64) {
	if c.Progress != nil {
		c.Progress(stage, epoch, loss)
	}
}

// Train trains all modality models on train data and fits the Bayesian
// Network combiners from the models' predictions on the training set — the
// "true-positive observations from the training data" of paper §4.2.
func Train(train *Data, cfg TrainConfig) (*Engine, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if len(train.Windows) == 0 {
		return nil, fmt.Errorf("core: engine training requires the IMU stream")
	}
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	eng := &Engine{
		Classes:    train.Classes,
		IMUClasses: train.IMUClasses,
		ClassMap:   append(bayes.ClassMap(nil), intsToClassMap(train.ClassMap)...),
		ImgW:       train.ImgW,
		ImgH:       train.ImgH,
	}

	// --- Frame CNN ----------------------------------------------------------
	cnn, err := BuildFrameCNN(rng, train.ImgW, train.ImgH, train.Classes, cfg.CNN)
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(cfg.CNNLR)
	opt.WeightDecay = 1e-4
	_, err = nn.TrainClassifier(cnn, opt, rng, train.Frames, train.Labels, nn.TrainConfig{
		Epochs: cfg.CNNEpochs, BatchSize: cfg.BatchSize, ClipNorm: 5,
		OnEpoch: func(e int, l float64) bool { cfg.progress("cnn", e, l); return true },
	})
	if err != nil {
		return nil, fmt.Errorf("core: train cnn: %w", err)
	}
	eng.CNN = cnn

	// --- IMU preprocessing ---------------------------------------------------
	stats, err := imu.FitStats(train.Windows)
	if err != nil {
		return nil, fmt.Errorf("core: fit imu stats: %w", err)
	}
	eng.IMUStats = stats
	seqs := make([]*tensor.Tensor, len(train.Windows))
	flat := tensor.New(len(train.Windows), len(train.Windows[0].Samples)*imu.FeatureDim)
	for i, w := range train.Windows {
		seqs[i] = stats.Normalize(w)
		copy(flat.Row(i), stats.NormalizeFlat(w))
	}

	// --- IMU RNN -------------------------------------------------------------
	rnnCls, err := rnn.NewClassifier("imurnn", rng, rnn.Config{
		Input: imu.FeatureDim, Hidden: cfg.RNNHidden, Layers: cfg.RNNLayers, Classes: train.IMUClasses,
	})
	if err != nil {
		return nil, err
	}
	_, err = rnnCls.Train(nn.NewAdam(cfg.RNNLR), rng, seqs, train.IMULabels, rnn.TrainConfig{
		Epochs: cfg.RNNEpochs, BatchSize: 16, ClipNorm: 5,
		OnEpoch: func(e int, l float64) bool { cfg.progress("rnn", e, l); return true },
	})
	if err != nil {
		return nil, fmt.Errorf("core: train rnn: %w", err)
	}
	eng.RNN = rnnCls

	// --- IMU SVM baseline ----------------------------------------------------
	svmCls, err := svm.Train(rng, flat, train.IMULabels, train.IMUClasses, svm.TrainConfig{
		Epochs: cfg.SVMEpochs, LR: cfg.SVMLR, Lambda: 1e-4,
	})
	if err != nil {
		return nil, fmt.Errorf("core: train svm: %w", err)
	}
	eng.SVM = svmCls
	cfg.progress("svm", 0, 0)

	// --- Bayesian Network combiners ------------------------------------------
	cnnPred, err := nn.PredictClasses(cnn, train.Frames)
	if err != nil {
		return nil, fmt.Errorf("core: cnn train predictions: %w", err)
	}
	rnnPred := make([]int, len(seqs))
	svmPred := make([]int, len(seqs))
	for i, s := range seqs {
		p, err := rnnCls.Predict(s)
		if err != nil {
			return nil, fmt.Errorf("core: rnn train prediction %d: %w", i, err)
		}
		rnnPred[i] = p
		q, err := svmCls.Predict(flat.Row(i))
		if err != nil {
			return nil, fmt.Errorf("core: svm train prediction %d: %w", i, err)
		}
		svmPred[i] = q
	}
	bnRNN, err := bayes.NewCombiner(train.Classes, train.Classes, train.IMUClasses)
	if err != nil {
		return nil, err
	}
	if err := bnRNN.Fit(train.Labels, [][]int{cnnPred, rnnPred}, cfg.Smoothing); err != nil {
		return nil, fmt.Errorf("core: fit CNN+RNN combiner: %w", err)
	}
	eng.BNWithRNN = bnRNN

	bnSVM, err := bayes.NewCombiner(train.Classes, train.Classes, train.IMUClasses)
	if err != nil {
		return nil, err
	}
	if err := bnSVM.Fit(train.Labels, [][]int{cnnPred, svmPred}, cfg.Smoothing); err != nil {
		return nil, fmt.Errorf("core: fit CNN+SVM combiner: %w", err)
	}
	eng.BNWithSVM = bnSVM
	cfg.progress("combiner", 0, 0)
	return eng, nil
}

func intsToClassMap(m []int) bayes.ClassMap {
	out := make(bayes.ClassMap, len(m))
	copy(out, m)
	return out
}

// ClassifyMode names which modalities backed a classification.
type ClassifyMode int

// Classification modes: fused is the healthy CNN+RNN ensemble; the single-
// modality modes are the degraded fallbacks used when the other modality's
// stream is absent (partitioned agent, stale window, missing frame).
const (
	ModeFused ClassifyMode = iota
	ModeCNNOnly
	ModeRNNOnly
)

// String implements fmt.Stringer.
func (m ClassifyMode) String() string {
	switch m {
	case ModeFused:
		return "fused"
	case ModeCNNOnly:
		return "cnn-only"
	case ModeRNNOnly:
		return "rnn-only"
	default:
		return fmt.Sprintf("ClassifyMode(%d)", int(m))
	}
}

// DegradedConfidenceDiscount is the factor applied to the posterior-peak
// confidence of a single-modality classification: with one parent of the
// Bayesian Network replaced by an uninformative uniform, the decision rests
// on half the evidence and downstream alerting should trust it accordingly.
const DegradedConfidenceDiscount = 0.5

// Classification is one inference over the available modalities.
type Classification struct {
	// Class is the ensemble (CNN+RNN via BN) decision.
	Class int
	// Probs is the ensemble posterior over all classes.
	Probs []float64
	// CNNProbs and RNNProbs are the per-modality distributions that were
	// combined (the two parent nodes of Figure 1). In a degraded mode the
	// absent modality's slice is nil and the combiner saw a uniform
	// distribution in its place.
	CNNProbs []float64
	RNNProbs []float64
	// Mode records which modalities produced this result.
	Mode ClassifyMode
	// Confidence is the posterior peak probability, discounted by
	// DegradedConfidenceDiscount when Mode is not ModeFused.
	Confidence float64
}

// Degraded reports whether the classification fell back to one modality.
func (c *Classification) Degraded() bool { return c.Mode != ModeFused }

// uniform returns the uninformative distribution over n outcomes — the
// stand-in parent for an absent modality in degraded classification.
func uniform(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

// Classify runs the full DarNet inference for one aligned (frame, window)
// observation: CNN on the frame, RNN on the normalized window, BN fusion.
func (e *Engine) Classify(frame []float64, window imu.Window) (*Classification, error) {
	return e.ClassifyCtx(context.Background(), frame, window)
}

// ClassifyCtx is Classify with span tracing: each model stage (CNN forward,
// RNN forward, BN fusion) becomes a child of a darnet_stage_classify span
// under the span carried by ctx (or of a fresh root when ctx carries none),
// and stage latencies feed the darnet_core_* histograms.
//
// Graceful degradation: an empty frame or an empty window selects the
// corresponding single-modality mode instead of failing — the absent parent
// of the Bayesian Network is replaced by a uniform distribution, so the
// posterior reduces to the surviving model's evidence reweighted by the
// class priors, and the result carries a discounted Confidence plus a
// non-fused Mode (and bumps darnet_core_degraded_classify_total). Only when
// both modalities are absent is there nothing to classify and an error is
// returned.
func (e *Engine) ClassifyCtx(ctx context.Context, frame []float64, window imu.Window) (*Classification, error) {
	return e.classifyCtx(ctx, frame, collect.DistortNone, window)
}

// ClassifyUntraced is ClassifyCtx without spans, for a caller that traces
// around the call itself (the stream pipeline's tick span): it opens no
// trace root, so it takes nothing from the tracer's sampling budget.
func (e *Engine) ClassifyUntraced(frame []float64, window imu.Window) (*Classification, error) {
	return e.classify(nil, frame, collect.DistortNone, window)
}

// classifyCtx runs classify for a frame distorted to level under a
// darnet_stage_classify span, so a distorted remote request gets the same
// spans as ClassifyCtx.
func (e *Engine) classifyCtx(ctx context.Context, frame []float64, level collect.DistortionLevel, window imu.Window) (*Classification, error) {
	_, span := telemetry.DefaultTracer.StartSpan(ctx, "darnet_stage_classify")
	defer span.End()
	return e.classify(span, frame, level, window)
}

// classify runs the three stages every served window goes through — the CNN
// (checkFrame, then cnnForward), WindowProbs and Fuse — as children of span
// (nil traces nothing), so every caller gets the same histograms and error
// count.
//
// The CNN and the RNN are the Bayesian Network's two independent parents,
// so with both modalities present the CNN runs on a goroutine of its own
// while this one runs the RNN, and a classification takes the slower
// stage's time rather than the sum. The frame's cheap checks run first, so
// a rejected frame fails before the RNN starts. The join waits for the CNN
// whatever happens, and a CNN error takes precedence over an RNN error.
func (e *Engine) classify(span *telemetry.Span, frame []float64, level collect.DistortionLevel, window imu.Window) (*Classification, error) {
	start := time.Now()

	// cnn is one variable, so the goroutine's captures cost one allocation.
	var cnn struct {
		done  sync.WaitGroup
		probs []float64
		err   error
	}
	if len(frame) > 0 {
		if err := e.checkFrame(frame, level); err != nil {
			return nil, err
		}
		cnnSp := span.StartChild("darnet_stage_cnn_forward")
		if len(window.Samples) == 0 {
			cnn.probs, cnn.err = e.cnnForward(frame, level)
			cnnSp.End()
		} else {
			cnn.done.Add(1)
			go func() {
				defer cnn.done.Done()
				cnn.probs, cnn.err = e.cnnForward(frame, level)
				cnnSp.End()
			}()
		}
	}
	var rnnProbs []float64
	var rnnErr error
	if len(window.Samples) > 0 {
		rnnSp := span.StartChild("darnet_stage_rnn_forward")
		rnnProbs, rnnErr = e.WindowProbs(window)
		rnnSp.End()
	}
	//lint:ignore goleak waits only for the CNN goroutine above, which defers Done and never blocks
	cnn.done.Wait()
	if cnn.err != nil {
		return nil, cnn.err
	}
	if rnnErr != nil {
		return nil, rnnErr
	}

	bnSp := span.StartChild("darnet_stage_bn_combine")
	out, err := e.Fuse(cnn.probs, rnnProbs)
	bnSp.End()
	if err != nil {
		return nil, err
	}
	hClassify.ObserveSince(start)
	return out, nil
}

// Each stage below feeds its darnet_core_*_seconds histogram and counts a
// failure in darnet_core_classify_errors_total, so ClassifyCtx and the
// streaming pipeline, which checks a frame when it arrives and classifies
// it with the window that completes next, are timed and counted alike.

// FrameProbs runs only the CNN modality over one undistorted flattened
// frame: CheckFrame, then the forward pass.
func (e *Engine) FrameProbs(frame []float64) ([]float64, error) {
	if err := e.CheckFrame(frame); err != nil {
		return nil, err
	}
	return e.cnnForward(frame, collect.DistortNone)
}

// CheckFrame is the CNN stage's input check for an undistorted frame alone,
// for a streaming caller that checks a frame when it arrives but runs the
// CNN only when a window decides.
func (e *Engine) CheckFrame(frame []float64) error {
	return e.checkFrame(frame, collect.DistortNone)
}

// checkFrame is the CNN stage's input check, cheap enough to run before
// anything else: the pixel count, and an attached router for a distorted
// level.
func (e *Engine) checkFrame(frame []float64, level collect.DistortionLevel) error {
	var err error
	switch {
	case len(frame) != e.ImgW*e.ImgH:
		err = fmt.Errorf("core: frame has %d pixels, want %d", len(frame), e.ImgW*e.ImgH)
	case level != collect.DistortNone && e.dcnn == nil:
		err = fmt.Errorf("core: no dCNN router attached for distortion level %v", level)
	}
	if err != nil {
		mClassifyErrors.Inc()
	}
	return err
}

// cnnForward is the CNN stage over a frame that passed checkFrame: the
// engine's own CNN at DistortNone, and otherwise the attached router's dCNN
// student for that level (Figure 3: the analytics engine "picks the
// appropriate classifier").
func (e *Engine) cnnForward(frame []float64, level collect.DistortionLevel) ([]float64, error) {
	start := time.Now()
	var probs []float64
	var err error
	if level == collect.DistortNone {
		probs, err = e.CNN.Probs(frame)
	} else {
		img := &vision.Image{W: e.ImgW, H: e.ImgH, Pix: frame}
		probs, err = e.dcnn.Classify(&privacy.TaggedFrame{Level: level, Image: img})
	}
	if err != nil {
		mClassifyErrors.Inc()
		return nil, err
	}
	hCNNForward.ObserveSince(start)
	return probs, nil
}

// windowScratch pools the (T, FeatureDim) tensors WindowProbs normalizes
// into. PredictProbs copies its result out, so a tensor is free again as
// soon as the call returns.
var windowScratch sync.Pool

// WindowProbs runs only the RNN modality over one IMU window, normalized
// with the engine's fitted stats, and returns the class distribution.
func (e *Engine) WindowProbs(window imu.Window) ([]float64, error) {
	start := time.Now()
	seq, ok := windowScratch.Get().(*tensor.Tensor)
	if !ok || seq.Dim(0) != len(window.Samples) {
		seq = tensor.New(len(window.Samples), imu.FeatureDim)
	}
	e.IMUStats.NormalizeInto(seq, window)
	probs, err := e.RNN.PredictProbs(seq)
	windowScratch.Put(seq)
	if err != nil {
		mClassifyErrors.Inc()
		return nil, fmt.Errorf("core: rnn inference: %w", err)
	}
	hRNNForward.ObserveSince(start)
	return probs, nil
}

// Fuse combines the per-modality distributions through the Bayesian Network.
// A nil slice marks an absent modality: its parent node is replaced by a
// uniform distribution and the result carries the corresponding degraded mode
// and discounted confidence. Both absent is an error.
func (e *Engine) Fuse(cnnProbs, rnnProbs []float64) (*Classification, error) {
	if cnnProbs == nil && rnnProbs == nil {
		mClassifyErrors.Inc()
		return nil, fmt.Errorf("core: both modalities absent, nothing to classify")
	}
	out := &Classification{Mode: ModeFused, CNNProbs: cnnProbs, RNNProbs: rnnProbs}
	pA := cnnProbs
	if pA == nil {
		pA = uniform(e.Classes)
		out.Mode = ModeRNNOnly
	}
	pB := rnnProbs
	if pB == nil {
		pB = uniform(e.IMUClasses)
		out.Mode = ModeCNNOnly
	}
	bnStart := time.Now()
	post, err := e.BNWithRNN.Combine(pA, pB)
	if err != nil {
		mClassifyErrors.Inc()
		return nil, fmt.Errorf("core: bn combine: %w", err)
	}
	hBNCombine.ObserveSince(bnStart)
	out.Class = bayes.ArgMax(post)
	out.Probs = post
	out.Confidence = post[out.Class]
	if out.Degraded() {
		out.Confidence *= DegradedConfidenceDiscount
		mDegraded.Inc()
	}
	mClassifications.Inc()
	return out, nil
}
