// Package darnet is a from-scratch Go reproduction of "DarNet: A Deep
// Learning Solution for Distracted Driving Detection" (Streiffer,
// Raghavendra, Benson, Srivatsa — Middleware Industry '17).
//
// DarNet detects and classifies distracted driving behaviour by fusing two
// sensing modalities: dashcam frames, classified per-frame by a
// convolutional neural network, and IMU windows from the driver's phone,
// classified by a deep bidirectional LSTM, with a per-class Bayesian Network
// combining the two probability distributions into a single inference. A
// privacy extension trains "denoising CNNs" on down-sampled frames by
// unsupervised distillation against the full-resolution model.
//
// The package exposes three areas:
//
//   - Synthetic datasets (GenerateDataset, Generate18ClassDataset,
//     LoadDataset) that stand in for the paper's private datasets,
//     engineered to reproduce the same modality structure (see DESIGN.md,
//     "Substitutions").
//   - The analytics engine (TrainEngine, EvaluateEngine, (*Engine).Classify):
//     CNN + RNN + SVM + Bayesian Network ensemble, and the Alerter that
//     debounces its classifications into driver alerts.
//   - The privacy path (EvaluateNetwork, Distill): distortion levels and
//     teacher-student dCNN training.
//
// The collection middleware (agents, controller, wire protocol, clock
// synchronization, alignment and smoothing) has no facade: cmd/darnetd
// serves it.
//
// Everything is implemented with the Go standard library only: the tensor,
// neural-network, recurrent-network, and SVM substrates live in internal
// packages and are re-exported here where they form part of the public
// surface.
package darnet
