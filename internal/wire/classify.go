package wire

import "fmt"

// Remote-classification message types: DarNet's remote configuration ships
// sensor data to a server that runs the analytics engine (paper §3.2,
// "Processing Decision"; §4.1 "all data processing on a remote server").
const (
	TypeClassifyRequest MsgType = iota + 16
	TypeClassifyResponse
)

// ClassifyRequest carries one aligned multi-modal observation to the remote
// analytics engine. The frame may be down-sampled; Distortion carries the
// privacy tag the server routes on (§4.3).
type ClassifyRequest struct {
	// Frame is the (possibly distorted) grayscale frame, row-major.
	FrameW, FrameH uint32
	Frame          []float64
	// Distortion is the privacy tag (collect.DistortionLevel values).
	Distortion uint8
	// Window is the aligned IMU window: Steps rows of FeatureDim features.
	Steps      uint32
	FeatureDim uint32
	Window     []float64
}

// Type implements Message.
func (*ClassifyRequest) Type() MsgType { return TypeClassifyRequest }

func (m *ClassifyRequest) encodeBody(w *writer) {
	w.u32(m.FrameW)
	w.u32(m.FrameH)
	w.u32(uint32(len(m.Frame)))
	for _, v := range m.Frame {
		w.f64(v)
	}
	w.u8(m.Distortion)
	w.u32(m.Steps)
	w.u32(m.FeatureDim)
	w.u32(uint32(len(m.Window)))
	for _, v := range m.Window {
		w.f64(v)
	}
}

func (m *ClassifyRequest) decodeBody(r *reader) error {
	m.FrameW = r.u32()
	m.FrameH = r.u32()
	n := r.u32()
	if r.err != nil {
		return r.err
	}
	if n > 1<<22 {
		return fmt.Errorf("wire: classify frame of %d pixels rejected", n)
	}
	if !r.fits(n, 8) {
		return r.err
	}
	m.Frame = make([]float64, n)
	for i := range m.Frame {
		m.Frame[i] = r.f64()
	}
	m.Distortion = r.u8()
	m.Steps = r.u32()
	m.FeatureDim = r.u32()
	wn := r.u32()
	if r.err != nil {
		return r.err
	}
	if wn > 1<<20 {
		return fmt.Errorf("wire: classify window of %d values rejected", wn)
	}
	if !r.fits(wn, 8) {
		return r.err
	}
	m.Window = make([]float64, wn)
	for i := range m.Window {
		m.Window[i] = r.f64()
	}
	return r.err
}

// Validate checks the request's internal consistency.
func (m *ClassifyRequest) Validate() error {
	if uint64(m.FrameW)*uint64(m.FrameH) != uint64(len(m.Frame)) {
		return fmt.Errorf("wire: classify frame %dx%d but %d pixels", m.FrameW, m.FrameH, len(m.Frame))
	}
	if uint64(m.Steps)*uint64(m.FeatureDim) != uint64(len(m.Window)) {
		return fmt.Errorf("wire: classify window %dx%d but %d values", m.Steps, m.FeatureDim, len(m.Window))
	}
	return nil
}

// ClassifyResponse returns the fused classification, or an error message if
// the server rejected the request.
type ClassifyResponse struct {
	Class uint32
	Probs []float64
	Error string
}

// Type implements Message.
func (*ClassifyResponse) Type() MsgType { return TypeClassifyResponse }

func (m *ClassifyResponse) encodeBody(w *writer) {
	w.u32(m.Class)
	w.u32(uint32(len(m.Probs)))
	for _, v := range m.Probs {
		w.f64(v)
	}
	w.str(m.Error)
}

func (m *ClassifyResponse) decodeBody(r *reader) error {
	m.Class = r.u32()
	n := r.u32()
	if r.err != nil {
		return r.err
	}
	if n > 1<<12 {
		return fmt.Errorf("wire: classify response with %d probabilities rejected", n)
	}
	if !r.fits(n, 8) {
		return r.err
	}
	m.Probs = make([]float64, n)
	for i := range m.Probs {
		m.Probs[i] = r.f64()
	}
	m.Error = r.str()
	return r.err
}
