package core

import "darnet/internal/telemetry"

// Analytics-engine metrics: fused-inference latency broken down by model
// stage, remote classify-service traffic, and degraded-mode fallbacks.
var (
	mClassifications = telemetry.NewCounter("darnet_core_classifications_total", "fused classifications served")
	mClassifyErrors  = telemetry.NewCounter("darnet_core_classify_errors_total", "classifications aborted by a model or validation error")
	hClassify        = telemetry.NewHistogram("darnet_core_classify_seconds", "end-to-end latency of one fused classification", nil)
	hCNNForward      = telemetry.NewHistogram("darnet_core_cnn_forward_seconds", "CNN forward pass over one frame", nil)
	hRNNForward      = telemetry.NewHistogram("darnet_core_rnn_forward_seconds", "RNN forward pass over one normalized window", nil)
	hBNCombine       = telemetry.NewHistogram("darnet_core_bn_combine_seconds", "Bayesian Network posterior fusion", nil)

	mRemoteRequests = telemetry.NewCounter("darnet_core_remote_requests_total", "classify requests answered by ServeClassify")
	mRemoteErrors   = telemetry.NewCounter("darnet_core_remote_errors_total", "classify requests answered with an error response")
	hRemoteRequest  = telemetry.NewHistogram("darnet_core_remote_request_seconds", "server-side handling of one classify request", nil)

	mDegraded = telemetry.NewCounter("darnet_core_degraded_classify_total", "classifications served in degraded single-modality mode because a modality was absent")
)
