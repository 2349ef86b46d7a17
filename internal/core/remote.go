package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"darnet/internal/collect"
	"darnet/internal/imu"
	"darnet/internal/privacy"
	"darnet/internal/telemetry"
	"darnet/internal/vision"
	"darnet/internal/wire"
)

// ServeClassify runs the remote-configuration analytics loop over one
// connection (paper §3.2/§4.1): it answers ClassifyRequest messages with the
// engine's fused classification until the peer disconnects. Malformed
// requests are answered with an error response rather than dropping the
// connection, so one bad observation does not interrupt the stream.
//
// ServeClassify serves with a background context; a server with a shutdown
// signal should use ServeClassifyCtx so cancellation reaches the loop.
func (e *Engine) ServeClassify(conn *wire.Conn) error {
	return e.ServeClassifyCtx(context.Background(), conn)
}

// ServeClassifyCtx is ServeClassify with cancellation: the loop exits
// between requests once ctx is canceled, and each request's span context
// derives from ctx — not a manufactured Background — so downstream stages
// observe the server's shutdown.
func (e *Engine) ServeClassifyCtx(ctx context.Context, conn *wire.Conn) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		msg, err := conn.Recv()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("core: serve classify recv: %w", err)
		}
		req, ok := msg.(*wire.ClassifyRequest)
		if !ok {
			return fmt.Errorf("core: expected classify request, got %T", msg)
		}
		start := time.Now()
		root := telemetry.DefaultTracer.StartRoot("darnet_classify_request")
		resp := e.answer(telemetry.ContextWithSpan(ctx, root), req)
		root.End()
		mRemoteRequests.Inc()
		if resp.Error != "" {
			mRemoteErrors.Inc()
		}
		hRemoteRequest.ObserveSince(start)
		if err := conn.Send(resp); err != nil {
			return fmt.Errorf("core: serve classify send: %w", err)
		}
	}
}

func (e *Engine) answer(ctx context.Context, req *wire.ClassifyRequest) *wire.ClassifyResponse {
	if err := req.Validate(); err != nil {
		return &wire.ClassifyResponse{Error: err.Error()}
	}
	if int(req.FrameW) != e.ImgW || int(req.FrameH) != e.ImgH {
		return &wire.ClassifyResponse{Error: fmt.Sprintf(
			"core: frame %dx%d does not match engine %dx%d", req.FrameW, req.FrameH, e.ImgW, e.ImgH)}
	}
	if int(req.FeatureDim) != imu.FeatureDim {
		return &wire.ClassifyResponse{Error: fmt.Sprintf(
			"core: window feature dim %d, want %d", req.FeatureDim, imu.FeatureDim)}
	}
	window, err := windowFromFeatures(req.Window, int(req.Steps))
	if err != nil {
		return &wire.ClassifyResponse{Error: err.Error()}
	}
	var res *Classification
	if level := collect.DistortionLevel(req.Distortion); level != collect.DistortNone {
		res, err = e.classifyDistorted(req.Frame, level, window)
	} else {
		res, err = e.ClassifyCtx(ctx, req.Frame, window)
	}
	if err != nil {
		return &wire.ClassifyResponse{Error: err.Error()}
	}
	return &wire.ClassifyResponse{
		Class: uint32(res.Class),
		Probs: append([]float64(nil), res.Probs...),
	}
}

// classifyDistorted fuses a privacy-distorted frame through the matching
// dCNN (Figure 3: the analytics engine "picks the appropriate classifier")
// with the IMU window through the same RNN forward and Bayesian Network
// fusion ClassifyCtx uses.
func (e *Engine) classifyDistorted(frame []float64, level collect.DistortionLevel, window imu.Window) (*Classification, error) {
	if e.dcnn == nil {
		return nil, fmt.Errorf("core: no dCNN router attached for distortion level %v", level)
	}
	img := vision.MustNewImage(e.ImgW, e.ImgH)
	copy(img.Pix, frame)
	cnnProbs, err := e.dcnn.Classify(&privacy.TaggedFrame{Level: level, Image: img})
	if err != nil {
		return nil, err
	}
	rnnProbs, err := e.rnnForward(window)
	if err != nil {
		return nil, err
	}
	return e.fuse(cnnProbs, rnnProbs)
}

// SetDCNNRouter attaches the level-tagged dCNN classifiers the remote server
// routes distorted frames to (paper §4.3).
func (e *Engine) SetDCNNRouter(r *privacy.Router) { e.dcnn = r }

// windowFromFeatures rebuilds an imu.Window from flattened per-step feature
// rows (the inverse of imu.Window.Flatten).
func windowFromFeatures(values []float64, steps int) (imu.Window, error) {
	if steps <= 0 || len(values) != steps*imu.FeatureDim {
		return imu.Window{}, fmt.Errorf("core: window has %d values for %d steps", len(values), steps)
	}
	samples := make([]imu.Sample, steps)
	for t := 0; t < steps; t++ {
		row := values[t*imu.FeatureDim : (t+1)*imu.FeatureDim]
		var s imu.Sample
		copy(s.Accel[:], row[0:3])
		copy(s.Gyro[:], row[3:6])
		copy(s.Gravity[:], row[6:9])
		copy(s.Rotation[:], row[9:13])
		samples[t] = s
	}
	return imu.Window{Samples: samples}, nil
}

// RemoteClassify is the client side of the remote configuration: it ships
// one aligned (frame, window) observation to a server running ServeClassify
// and returns the fused classification.
func RemoteClassify(conn *wire.Conn, frame []float64, w, h int, distortion uint8, window imu.Window) (*Classification, error) {
	req := &wire.ClassifyRequest{
		FrameW:     uint32(w),
		FrameH:     uint32(h),
		Frame:      frame,
		Distortion: distortion,
		Steps:      uint32(len(window.Samples)),
		FeatureDim: imu.FeatureDim,
		Window:     window.Flatten(),
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := conn.Send(req); err != nil {
		return nil, fmt.Errorf("core: remote classify send: %w", err)
	}
	msg, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: remote classify recv: %w", err)
	}
	resp, ok := msg.(*wire.ClassifyResponse)
	if !ok {
		return nil, fmt.Errorf("core: expected classify response, got %T", msg)
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("core: remote classify: %s", resp.Error)
	}
	return &Classification{Class: int(resp.Class), Probs: resp.Probs}, nil
}
