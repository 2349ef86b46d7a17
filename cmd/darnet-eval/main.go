// Command darnet-eval regenerates every table and figure of the paper's
// evaluation section on the synthetic datasets:
//
//	darnet-eval -exp table1              # Table 1: class inventory
//	darnet-eval -exp table2              # Table 2: ensemble Top-1 + IMU-only
//	darnet-eval -exp figure5             # Figure 5: confusion matrices
//	darnet-eval -exp figure4 -out ./fig4 # Figure 4: down-sampled frames
//	darnet-eval -exp table3              # Table 3: dCNN Top-1
//	darnet-eval -exp ablations           # design-choice comparisons
//	darnet-eval -exp driver-split        # leave-one-driver-out protocol
//	darnet-eval -exp all -out ./figures  # every paper table and figure
//
// Paper reference values are printed beside each measured number.
//
// The benchmark experiments write one report each, by default to their
// committed BENCH_PR<n>.json (-bench-out overrides the path), and
// -check-bench validates a report:
//
//	darnet-eval -exp bench    # BENCH_PR3.json: accuracy, serving-path stage latency
//	darnet-eval -exp chaos    # BENCH_PR5.json: ingest under a fixed fault schedule
//	darnet-eval -exp stream   # BENCH_PR7.json: the stream pipeline at saturation
//	darnet-eval -exp obs      # BENCH_PR8.json: tracing and scraping overhead
//	darnet-eval -exp crash    # BENCH_PR10.json: WAL cost, power-cut loss, recovery
//	darnet-eval -check-bench BENCH_PR8.json
//
// Every report has the same shape: pr, experiment, seed, the provenance of
// the machine it ran on, and named metrics, each a value with its unit.
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"darnet"
	"darnet/internal/core"
	"darnet/internal/imu"
	"darnet/internal/metrics"
	"darnet/internal/nn"
	"darnet/internal/rnn"
	"darnet/internal/synth"
	"darnet/internal/telemetry"
	"darnet/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("darnet-eval: ")

	var (
		exp        = flag.String("exp", "all", "experiment: table1|table2|figure5|figure4|table3|ablations|driver-split|kfold|all, or a benchmark: "+strings.Join(slices.Sorted(maps.Keys(benchmarks)), "|"))
		scale      = flag.Float64("scale", 0.04, "fraction of the paper's Table 1 frame counts to generate")
		seed       = flag.Int64("seed", 42, "train/eval random seed")
		outDir     = flag.String("out", "figures", "output directory for figure artifacts")
		cnnEpochs  = flag.Int("cnn-epochs", 16, "frame CNN training epochs")
		rnnEpochs  = flag.Int("rnn-epochs", 12, "IMU RNN training epochs")
		quiet      = flag.Bool("q", false, "suppress training progress")
		dataPath   = flag.String("data", "", "load a saved 6-class dataset (darnet-datagen -save) instead of generating")
		telem      = flag.Bool("telemetry", false, "print stage latency histograms and the most recent trace after the experiment")
		benchOut   = flag.String("bench-out", "", "output path for a benchmark's report (default: the benchmark's committed BENCH_PR<n>.json)")
		checkBench = flag.String("check-bench", "", "validate a benchmark report and exit")
	)
	flag.Parse()

	if *checkBench != "" {
		if err := checkBenchFile(*checkBench); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*exp, *scale, *seed, *outDir, *cnnEpochs, *rnnEpochs, *quiet, *dataPath, benchOutPath(*exp, *benchOut)); err != nil {
		log.Fatal(err)
	}
	if *telem {
		if err := telemetry.WriteReport(os.Stdout, telemetry.Default.Snapshot(), telemetry.DefaultTracer); err != nil {
			log.Fatal(err)
		}
	}
}

// loadOrGenerate returns the 6-class dataset from dataPath, or generates one
// at the given scale.
func loadOrGenerate(dataPath string, scale float64) (*darnet.Dataset, error) {
	if dataPath == "" {
		cfg := darnet.DefaultDatasetConfig()
		cfg.Scale = scale
		return darnet.GenerateDataset(cfg)
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, fmt.Errorf("open dataset: %w", err)
	}
	defer f.Close()
	return darnet.LoadDataset(f)
}

func run(exp string, scale float64, seed int64, outDir string, cnnEpochs, rnnEpochs int, quiet bool, dataPath, benchOut string) error {
	switch exp {
	case "table1":
		return table1(scale)
	case "table2", "figure5":
		_, _, ev, err := trainAndEvaluate(dataPath, scale, seed, cnnEpochs, rnnEpochs, quiet)
		if err != nil {
			return err
		}
		if exp == "table2" {
			printTable2(ev)
		} else {
			printFigure5(ev)
		}
		return nil
	case "figure4":
		return figure4(outDir)
	case "ablations":
		return ablations(scale, seed, cnnEpochs, rnnEpochs, quiet)
	case "driver-split":
		return driverSplit(scale, seed, cnnEpochs, rnnEpochs, quiet)
	case "kfold":
		return kfold(dataPath, scale, seed, cnnEpochs, rnnEpochs, quiet)
	case "table3":
		return table3(seed, cnnEpochs, quiet)
	case "bench":
		return bench(dataPath, scale, seed, cnnEpochs, rnnEpochs, quiet, benchOut)
	case "chaos":
		return chaosBench(seed, benchOut)
	case "stream":
		return streamBench(scale, seed, cnnEpochs, rnnEpochs, quiet, benchOut)
	case "obs":
		return obsBench(scale, seed, cnnEpochs, rnnEpochs, quiet, benchOut)
	case "crash":
		return crashBench(scale, seed, benchOut)
	case "all":
		if err := table1(scale); err != nil {
			return err
		}
		if err := figure4(outDir); err != nil {
			return err
		}
		_, _, ev, err := trainAndEvaluate(dataPath, scale, seed, cnnEpochs, rnnEpochs, quiet)
		if err != nil {
			return err
		}
		printTable2(ev)
		printFigure5(ev)
		return table3(seed, cnnEpochs, quiet)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// table1 prints the dataset inventory in the style of the paper's Table 1.
func table1(scale float64) error {
	cfg := darnet.DefaultDatasetConfig()
	cfg.Scale = scale
	ds, err := darnet.GenerateDataset(cfg)
	if err != nil {
		return err
	}
	counts := ds.ClassCounts()
	fmt.Println("== Table 1: driver behaviour classes ==")
	fmt.Printf("%-3s %-17s %-12s %-12s %s\n", "#", "Class", "Data Types", "Paper Count", "Generated")
	for c := 0; c < darnet.NumClasses; c++ {
		types := "Image, IMU"
		if !synth.Table1HasIMU[c] {
			types = "Image, —"
		}
		fmt.Printf("%-3d %-17s %-12s %-12d %d\n", c+1, darnet.Class(c), types, synth.Table1Counts[c], counts[c])
	}
	fmt.Printf("total: paper 57080, generated %d (scale %.3f)\n\n", ds.Len(), scale)
	return nil
}

// trainAndEvaluate runs the full Table 2 / Figure 5 experiment, returning
// the trained engine and the held-out test set alongside the evaluation so
// follow-up probes (the bench experiment) can reuse them.
func trainAndEvaluate(dataPath string, scale float64, seed int64, cnnEpochs, rnnEpochs int, quiet bool) (*darnet.Engine, *darnet.Dataset, *darnet.Evaluation, error) {
	ds, err := loadOrGenerate(dataPath, scale)
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	train, test, err := ds.Split(rng, 0.2) // the paper's 80/20 partition
	if err != nil {
		return nil, nil, nil, err
	}

	tc := darnet.DefaultEngineTrainConfig()
	tc.Seed = seed
	tc.CNNEpochs = cnnEpochs
	tc.RNNEpochs = rnnEpochs
	start := time.Now()
	if !quiet {
		tc.Progress = func(stage string, epoch int, loss float64) {
			fmt.Printf("  [%s] epoch %d loss %.4f (%v)\n", stage, epoch, loss, time.Since(start).Round(time.Second))
		}
	}
	eng, err := darnet.TrainEngine(train, tc)
	if err != nil {
		return nil, nil, nil, err
	}
	ev, err := darnet.EvaluateEngine(eng, test)
	if err != nil {
		return nil, nil, nil, err
	}
	return eng, test, ev, nil
}

// kfold evaluates the three architectures under 5-fold cross-validation,
// reporting mean ± standard deviation across folds — the variance estimate a
// single 80/20 split (the paper's protocol) cannot provide.
func kfold(dataPath string, scale float64, seed int64, cnnEpochs, rnnEpochs int, quiet bool) error {
	ds, err := loadOrGenerate(dataPath, scale)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	const k = 5
	folds, err := ds.KFold(rng, k)
	if err != nil {
		return err
	}
	fmt.Printf("== %d-fold cross-validation (%d samples) ==\n", k, ds.Len())
	start := time.Now()
	var cnnRnn, cnnSvm, cnn []float64
	for i, fold := range folds {
		tc := darnet.DefaultEngineTrainConfig()
		tc.Seed = seed + int64(i)
		tc.CNNEpochs = cnnEpochs
		tc.RNNEpochs = rnnEpochs
		eng, err := darnet.TrainEngine(fold[0], tc)
		if err != nil {
			return err
		}
		ev, err := darnet.EvaluateEngine(eng, fold[1])
		if err != nil {
			return err
		}
		cnnRnn = append(cnnRnn, ev.CNNRNN)
		cnnSvm = append(cnnSvm, ev.CNNSVM)
		cnn = append(cnn, ev.CNN)
		if !quiet {
			fmt.Printf("  fold %d: CNN+RNN %s, CNN+SVM %s, CNN %s (%v)\n", i+1,
				metrics.FormatPercent(ev.CNNRNN), metrics.FormatPercent(ev.CNNSVM),
				metrics.FormatPercent(ev.CNN), time.Since(start).Round(time.Second))
		}
	}
	report := func(name string, vals []float64) {
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		variance := 0.0
		for _, v := range vals {
			variance += (v - mean) * (v - mean)
		}
		std := math.Sqrt(variance / float64(len(vals)))
		fmt.Printf("%-9s %s ± %.2f\n", name, metrics.FormatPercent(mean), std*100)
	}
	report("CNN+RNN", cnnRnn)
	report("CNN+SVM", cnnSvm)
	report("CNN", cnn)
	fmt.Println()
	return nil
}

// driverSplit evaluates the ensemble under leave-one-driver-out — the
// cross-driver generalization protocol the paper's 80/20 random split does
// not measure (every driver appears on both sides of a random split).
func driverSplit(scale float64, seed int64, cnnEpochs, rnnEpochs int, quiet bool) error {
	cfg := darnet.DefaultDatasetConfig()
	cfg.Scale = scale
	ds, err := darnet.GenerateDataset(cfg)
	if err != nil {
		return err
	}
	drivers := ds.Drivers()
	heldOut := drivers[0]
	train, test, err := ds.SplitByDriver(heldOut)
	if err != nil {
		return err
	}
	fmt.Printf("== Leave-one-driver-out (driver %d held out: %d train / %d test) ==\n",
		heldOut, train.Len(), test.Len())

	tc := darnet.DefaultEngineTrainConfig()
	tc.Seed = seed
	tc.CNNEpochs = cnnEpochs
	tc.RNNEpochs = rnnEpochs
	start := time.Now()
	if !quiet {
		tc.Progress = func(stage string, epoch int, loss float64) {
			fmt.Printf("  [%s] epoch %d loss %.4f (%v)\n", stage, epoch, loss, time.Since(start).Round(time.Second))
		}
	}
	eng, err := darnet.TrainEngine(train, tc)
	if err != nil {
		return err
	}
	ev, err := darnet.EvaluateEngine(eng, test)
	if err != nil {
		return err
	}
	fmt.Printf("%-9s %s\n", "CNN+RNN", metrics.FormatPercent(ev.CNNRNN))
	fmt.Printf("%-9s %s\n", "CNN+SVM", metrics.FormatPercent(ev.CNNSVM))
	fmt.Printf("%-9s %s\n", "CNN", metrics.FormatPercent(ev.CNN))
	fmt.Printf("(random-split reference: see -exp table2)\n\n")
	return nil
}

// ablations runs the design-choice comparisons DESIGN.md calls out at full
// experiment scale: BN vs naive combiners, bidirectional vs unidirectional
// LSTM, and inception vs plain CNN at a comparable parameter budget.
func ablations(scale float64, seed int64, cnnEpochs, rnnEpochs int, quiet bool) error {
	cfg := darnet.DefaultDatasetConfig()
	cfg.Scale = scale
	ds, err := darnet.GenerateDataset(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	train, test, err := ds.Split(rng, 0.2)
	if err != nil {
		return err
	}
	start := time.Now()
	progress := func(stage string) func(epoch int, loss float64) {
		if quiet {
			return nil
		}
		return func(epoch int, loss float64) {
			fmt.Printf("  [%s] epoch %d loss %.4f (%v)\n", stage, epoch, loss, time.Since(start).Round(time.Second))
		}
	}

	// 1. Combiner ablation: the engine evaluation already carries the naive
	// product/average fusions next to the Bayesian Network.
	tc := darnet.DefaultEngineTrainConfig()
	tc.Seed = seed
	tc.CNNEpochs = cnnEpochs
	tc.RNNEpochs = rnnEpochs
	if !quiet {
		tc.Progress = func(stage string, epoch int, loss float64) {
			fmt.Printf("  [%s] epoch %d loss %.4f (%v)\n", stage, epoch, loss, time.Since(start).Round(time.Second))
		}
	}
	eng, err := darnet.TrainEngine(train, tc)
	if err != nil {
		return err
	}
	ev, err := darnet.EvaluateEngine(eng, test)
	if err != nil {
		return err
	}
	fmt.Println("== Ablation 1: ensemble combiner (CNN+RNN) ==")
	fmt.Printf("%-22s %s\n", "Bayesian Network", metrics.FormatPercent(ev.CNNRNN))
	fmt.Printf("%-22s %s\n", "product fusion", metrics.FormatPercent(ev.ProductCombine))
	fmt.Printf("%-22s %s\n", "average fusion", metrics.FormatPercent(ev.AverageCombine))
	fmt.Println()

	// 2. Recurrent architecture ablation on the IMU task.
	stats, err := imu.FitStats(train.IMUWindows())
	if err != nil {
		return err
	}
	norm := func(d *darnet.Dataset) []*tensor.Tensor {
		out := make([]*tensor.Tensor, d.Len())
		for i, w := range d.IMUWindows() {
			out[i] = stats.Normalize(w)
		}
		return out
	}
	trainSeqs, testSeqs := norm(train), norm(test)
	fmt.Println("== Ablation 2: bidirectional vs unidirectional LSTM ==")
	for _, unidir := range []bool{false, true} {
		cls, err := rnn.NewClassifier("abl", rng, rnn.Config{
			Input: imu.FeatureDim, Hidden: 64, Layers: 2,
			Classes: darnet.NumIMUClasses, Unidirectional: unidir,
		})
		if err != nil {
			return err
		}
		if _, err := cls.Train(nn.NewAdam(0.003), rng, trainSeqs, train.IMULabels(), rnn.TrainConfig{
			Epochs: rnnEpochs, BatchSize: 16, ClipNorm: 5,
		}); err != nil {
			return err
		}
		acc, err := cls.Evaluate(testSeqs, test.IMULabels())
		if err != nil {
			return err
		}
		name := "BiLSTM (paper)"
		if unidir {
			name = "unidirectional LSTM"
		}
		fmt.Printf("%-22s %s (%d params)\n", name, metrics.FormatPercent(acc), cls.NumParams())
	}
	fmt.Println()

	// 3. Frame architecture ablation.
	fmt.Println("== Ablation 3: inception modules vs plain conv stack ==")
	for _, plain := range []bool{false, true} {
		var net *darnet.Network
		var err error
		if plain {
			net, err = core.BuildPlainCNN(rng, cfg.ImgW, cfg.ImgH, darnet.NumClasses, darnet.DefaultCNNConfig())
		} else {
			net, err = darnet.BuildFrameCNN(rng, cfg.ImgW, cfg.ImgH, darnet.NumClasses, darnet.DefaultCNNConfig())
		}
		if err != nil {
			return err
		}
		label := "MicroInception"
		if plain {
			label = "plain conv stack"
		}
		if err := trainFramesNet(net, train, cnnEpochs, seed, progress(label)); err != nil {
			return err
		}
		acc, err := darnet.EvaluateNetwork(net, test, darnet.DistortNone, darnet.CompactDistortionRatios())
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %s (%d params)\n", label, metrics.FormatPercent(acc), net.NumParams())
	}
	fmt.Println()
	return nil
}

func trainFramesNet(net *darnet.Network, train *darnet.Dataset, epochs int, seed int64, progress func(int, float64)) error {
	return darnet.TrainNetwork(net, train, epochs, seed, progress)
}

func printTable2(ev *darnet.Evaluation) {
	fmt.Println("== Table 2: ensemble Top-1 classification ==")
	fmt.Printf("%-9s %-9s %s\n", "Model", "Hit@1", "Paper")
	fmt.Printf("%-9s %-9s %s\n", "CNN+RNN", metrics.FormatPercent(ev.CNNRNN), "87.02%")
	fmt.Printf("%-9s %-9s %s\n", "CNN+SVM", metrics.FormatPercent(ev.CNNSVM), "86.23%")
	fmt.Printf("%-9s %-9s %s\n", "CNN", metrics.FormatPercent(ev.CNN), "73.88%")
	fmt.Println()
	fmt.Println("== §5.2: IMU-sequence-only Top-1 ==")
	fmt.Printf("%-9s %-9s %s\n", "RNN", metrics.FormatPercent(ev.RNNOnly), "97.44%")
	fmt.Printf("%-9s %-9s %s\n", "SVM", metrics.FormatPercent(ev.SVMOnly), "95.37%")
	fmt.Println()
	fmt.Println("== Ablation: Bayesian Network vs naive combiners (CNN+RNN) ==")
	fmt.Printf("%-9s %s\n", "BN", metrics.FormatPercent(ev.CNNRNN))
	fmt.Printf("%-9s %s\n", "product", metrics.FormatPercent(ev.ProductCombine))
	fmt.Printf("%-9s %s\n", "average", metrics.FormatPercent(ev.AverageCombine))
	fmt.Printf("calibration (ECE, 10 bins): CNN %.3f, fused %.3f\n\n", ev.CNNECE, ev.FusedECE)
}

func printFigure5(ev *darnet.Evaluation) {
	fmt.Println("== Figure 5(a): CNN+RNN (DarNet) confusion matrix ==")
	fmt.Println(ev.ConfusionCNNRNN)
	fmt.Println("== Figure 5(b): CNN+SVM confusion matrix ==")
	fmt.Println(ev.ConfusionCNNSVM)
	fmt.Println("== Figure 5(c): CNN (frame data only) confusion matrix ==")
	fmt.Println(ev.ConfusionCNN)
	tex := int(darnet.Texting)
	fmt.Printf("texting recall: CNN %s -> CNN+RNN %s (paper: 36.0%% -> 87.0%%)\n",
		metrics.FormatPercent(ev.ConfusionCNN.Rate(tex, tex)),
		metrics.FormatPercent(ev.ConfusionCNNRNN.Rate(tex, tex)))
	// §5.2: "all three models output a high number of false positives when
	// predicting normal driving".
	norm := int(darnet.NormalDriving)
	fmt.Printf("normal-driving false positives: CNN %d (precision %s), CNN+RNN %d (precision %s)\n\n",
		ev.ConfusionCNN.FalsePositives(norm), metrics.FormatPercent(ev.ConfusionCNN.Precision(norm)),
		ev.ConfusionCNNRNN.FalsePositives(norm), metrics.FormatPercent(ev.ConfusionCNNRNN.Precision(norm)))
}

// figure4 renders one scene at the paper's 300×300 resolution and writes the
// undistorted and 100×100 / 50×50 / 25×25 versions (paper Figure 4).
func figure4(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", outDir, err)
	}
	rng := rand.New(rand.NewSource(4))
	driver := synth.NewDriverProfile(rng)
	amb := synth.DefaultAmbiguity()
	amb.NoiseSigma = 0.03
	frame := synth.RenderScene(rng, 300, 300, darnet.Talking, driver, amb)

	fmt.Println("== Figure 4: privacy down-sampling levels ==")
	write := func(name string, img *darnet.Image) error {
		path := filepath.Join(outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(name, ".png") {
			err = img.WritePNG(f)
		} else {
			err = img.WritePGM(f)
		}
		if err != nil {
			return err
		}
		fmt.Printf("  wrote %s (%dx%d)\n", path, img.W, img.H)
		return nil
	}
	if err := write("figure4-original-300x300.png", frame); err != nil {
		return err
	}
	for _, lv := range []struct {
		level darnet.DistortionLevel
		size  int
	}{
		{darnet.DistortLow, 100},
		{darnet.DistortMedium, 50},
		{darnet.DistortHigh, 25},
	} {
		small, err := frame.DownsampleNearest(lv.size, lv.size)
		if err != nil {
			return err
		}
		if err := write(fmt.Sprintf("figure4-%s-%dx%d.png", lv.level, lv.size, lv.size), small); err != nil {
			return err
		}
	}
	fmt.Println()
	return nil
}

// table3 reproduces the dCNN privacy evaluation on the 18-class dataset.
func table3(seed int64, teacherEpochs int, quiet bool) error {
	cfg := darnet.DefaultDataset18Config()
	ds, err := darnet.Generate18ClassDataset(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	train, test, err := ds.Split(rng, 0.2)
	if err != nil {
		return err
	}

	// Extra unlabeled frames for distillation: the dCNN methodology is
	// fully unsupervised (paper §4.3 — "allows for new data to be
	// incorporated into the system"), so additional unlabeled capture time
	// costs nothing and closes most of the distillation gap.
	extraCfg := cfg
	extraCfg.Seed = cfg.Seed + 1000
	extra, err := darnet.Generate18ClassDataset(extraCfg)
	if err != nil {
		return err
	}
	distillFrames := concatFrames(train, extra)

	cnnCfg := darnet.DefaultCNNConfig()
	teacher, err := darnet.BuildFrameCNN(rng, cfg.ImgW, cfg.ImgH, 18, cnnCfg)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := trainTeacher(teacher, train, teacherEpochs, seed, quiet, start); err != nil {
		return err
	}
	teacherAcc, err := darnet.EvaluateNetwork(teacher, test, darnet.DistortNone, darnet.CompactDistortionRatios())
	if err != nil {
		return err
	}

	fmt.Println("== Table 3: CNN and dCNN Top-1 on the 18-class dataset ==")
	fmt.Printf("%-8s %-9s %s\n", "Model", "Hit@1", "Paper")
	fmt.Printf("%-8s %-9s %s\n", "CNN", metrics.FormatPercent(teacherAcc), "78.87%")

	build := func(rng *rand.Rand) (*darnet.Network, error) {
		return darnet.BuildFrameCNN(rng, cfg.ImgW, cfg.ImgH, 18, cnnCfg)
	}
	papers := map[darnet.DistortionLevel]string{
		darnet.DistortLow:    "80.00%",
		darnet.DistortMedium: "77.78%",
		darnet.DistortHigh:   "63.13%",
	}
	names := map[darnet.DistortionLevel]string{
		darnet.DistortLow:    "dCNN-L",
		darnet.DistortMedium: "dCNN-M",
		darnet.DistortHigh:   "dCNN-H",
	}
	for _, level := range []darnet.DistortionLevel{darnet.DistortLow, darnet.DistortMedium, darnet.DistortHigh} {
		dc := darnet.DefaultDistillConfig()
		dc.Epochs = 18
		dc.LR = 0.0015
		if !quiet {
			dc.Progress = func(epoch int, loss float64) {
				fmt.Printf("  [%s] epoch %d L2 %.4f (%v)\n", names[level], epoch, loss, time.Since(start).Round(time.Second))
			}
		}
		student, err := darnet.Distill(teacher, build, distillFrames, level, darnet.CompactDistortionRatios(), rng, dc)
		if err != nil {
			return err
		}
		acc, err := darnet.EvaluateNetwork(student, test, level, darnet.CompactDistortionRatios())
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-9s %s\n", names[level], metrics.FormatPercent(acc), papers[level])
	}
	fmt.Println()
	return nil
}

// concatFrames builds one image-only dataset from the frames of several.
func concatFrames(sets ...*darnet.Dataset) *darnet.Dataset {
	out := &darnet.Dataset{ImgW: sets[0].ImgW, ImgH: sets[0].ImgH, Classes: sets[0].Classes}
	for _, ds := range sets {
		out.Samples = append(out.Samples, ds.Samples...)
	}
	return out
}

func trainTeacher(teacher *darnet.Network, train *darnet.Dataset, epochs int, seed int64, quiet bool, start time.Time) error {
	var progress func(epoch int, loss float64)
	if !quiet {
		progress = func(epoch int, loss float64) {
			fmt.Printf("  [teacher] epoch %d loss %.4f (%v)\n", epoch, loss, time.Since(start).Round(time.Second))
		}
	}
	return darnet.TrainNetwork(teacher, train, epochs, seed, progress)
}
