// Package wire implements the framing and message encoding spoken between
// DarNet collection agents and the centralized controller (paper §3.1–3.2):
// agent hello, timestamped sample batches, the master-slave clock
// synchronization exchange, and acknowledgements. Frames are length-prefixed
// binary, transport-agnostic (TCP in deployment, in-memory pipes in tests).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"darnet/internal/telemetry"
)

// Process-wide transport metrics: bytes and messages crossing every wire
// connection, plus malformed-frame rejections. Per-connection accounting
// (Conn.BytesRead/BytesWritten) remains the processing policy's bandwidth
// input; these aggregate across connections for the ops endpoint.
var (
	mBytesSent    = telemetry.NewCounter("darnet_wire_bytes_sent_total", "framed bytes written across all connections")
	mBytesRecv    = telemetry.NewCounter("darnet_wire_bytes_received_total", "framed bytes read across all connections")
	mMsgsSent     = telemetry.NewCounter("darnet_wire_messages_sent_total", "protocol messages sent")
	mMsgsRecv     = telemetry.NewCounter("darnet_wire_messages_received_total", "protocol messages received")
	mDecodeErrors = telemetry.NewCounter("darnet_wire_decode_errors_total", "frames rejected as malformed (oversized, empty, unknown type, short body, trailing bytes)")
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message types.
const (
	TypeHello MsgType = iota + 1
	TypeSampleBatch
	TypeClockSync
	TypeClockAck
	TypeAck
	TypeHeartbeat
)

// ProtocolVersion is the wire protocol revision (see PROTOCOL.md). Version 2
// added per-agent batch sequence numbers and the heartbeat message, the basis
// of at-least-once delivery with controller-side deduplication. Version 3
// added the credit field on Ack, the backpressure signal of the streaming
// classification pipeline. Version 4 added the optional trailing
// trace-context field on SampleBatch, joining agent-side and controller-side
// spans into one distributed trace.
const ProtocolVersion = 4

// MaxFrameSize bounds a single frame; oversized frames indicate corruption
// or abuse and abort the connection.
const MaxFrameSize = 16 << 20

// Typed framing errors. Recv wraps them with context, so match with
// errors.Is; all of them indicate a corrupt or hostile stream and abort the
// connection rather than panicking on malformed input.
var (
	// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrEmptyFrame is returned for a zero-length frame (no type byte).
	ErrEmptyFrame = errors.New("wire: empty frame")
	// ErrUnknownType is returned when the type byte names no known message.
	ErrUnknownType = errors.New("wire: unknown message type")
	// ErrTruncatedFrame is returned when a body ends before its declared
	// fields do (e.g. a corrupted length prefix inside the frame).
	ErrTruncatedFrame = errors.New("wire: truncated frame")
	// ErrTrailingBytes is returned when a body carries bytes past its last
	// declared field.
	ErrTrailingBytes = errors.New("wire: trailing bytes in frame")
	// ErrFieldTooLarge is returned when a length-prefixed field (string,
	// reading count, value count) declares more elements than its bound
	// allows — a corrupted prefix caught before any allocation.
	ErrFieldTooLarge = errors.New("wire: field exceeds its bound")
)

// Message is one protocol message.
type Message interface {
	Type() MsgType
	encodeBody(w *writer)
	decodeBody(r *reader) error
}

// Hello announces an agent to the controller.
type Hello struct {
	AgentID      string
	Modality     string // "imu", "camera", ...
	PeriodMillis uint32 // sensor polling period
}

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

func (m *Hello) encodeBody(w *writer) {
	w.str(m.AgentID)
	w.str(m.Modality)
	w.u32(m.PeriodMillis)
}

func (m *Hello) decodeBody(r *reader) error {
	m.AgentID = r.str()
	m.Modality = r.str()
	m.PeriodMillis = r.u32()
	return r.err
}

// Reading is one timestamped sensor observation: a named sensor channel and
// its values (e.g. 3 accelerometer axes, or W*H pixels for a camera frame).
type Reading struct {
	TimestampMillis int64
	Sensor          string
	Values          []float64
}

// SampleBatch carries buffered readings from an agent.
//
// Seq is the per-agent batch sequence number (protocol v2): agents number
// batches 1, 2, 3… and only advance after the controller's Ack, so a batch
// retransmitted after a reconnect reuses its original number and the
// controller can drop the replay. Seq 0 marks a legacy batch that is never
// deduplicated.
type SampleBatch struct {
	AgentID  string
	Seq      uint64
	Readings []Reading

	// Trace is the agent-side flush span's context (protocol v4), encoded as
	// an optional trailing field: present only when the context is non-zero,
	// so a v3 peer — or a v4 agent with tracing disabled — emits and accepts
	// byte-identical v3 frames. The zero value means "no trace".
	Trace telemetry.SpanContext
}

// traceFieldSize is the encoded size of the optional v4 trace-context field:
// trace ID (u64) + span ID (u64) + flags (u8, bit 0 = sampled) + send
// timestamp (i64 nanoseconds).
const traceFieldSize = 8 + 8 + 1 + 8

// Type implements Message.
func (*SampleBatch) Type() MsgType { return TypeSampleBatch }

func (m *SampleBatch) encodeBody(w *writer) {
	w.str(m.AgentID)
	w.u64(m.Seq)
	w.u32(uint32(len(m.Readings)))
	for _, rd := range m.Readings {
		w.i64(rd.TimestampMillis)
		w.str(rd.Sensor)
		w.u32(uint32(len(rd.Values)))
		for _, v := range rd.Values {
			w.f64(v)
		}
	}
	// Optional v4 trace context, written only when present: absence keeps the
	// frame byte-identical to v3, which is the whole compatibility story.
	if m.Trace.TraceID != 0 || m.Trace.SpanID != 0 {
		w.u64(m.Trace.TraceID)
		w.u64(m.Trace.SpanID)
		var flags uint8
		if m.Trace.Sampled {
			flags |= 1
		}
		w.u8(flags)
		w.i64(m.Trace.SentUnixNano)
	}
}

func (m *SampleBatch) decodeBody(r *reader) error {
	m.AgentID = r.str()
	m.Seq = r.u64()
	n := r.u32()
	if r.err != nil {
		return r.err
	}
	if n > 1<<20 {
		return fmt.Errorf("%w: batch of %d readings rejected", ErrFieldTooLarge, n)
	}
	// A reading is at least a timestamp, a string length and a value count.
	if !r.fits(n, 8+4+4) {
		return r.err
	}
	m.Readings = make([]Reading, n)
	for i := range m.Readings {
		m.Readings[i].TimestampMillis = r.i64()
		m.Readings[i].Sensor = r.str()
		vn := r.u32()
		if r.err != nil {
			return r.err
		}
		if vn > 1<<22 {
			return fmt.Errorf("%w: reading with %d values rejected", ErrFieldTooLarge, vn)
		}
		if !r.fits(vn, 8) {
			return r.err
		}
		m.Readings[i].Values = make([]float64, vn)
		for j := range m.Readings[i].Values {
			m.Readings[i].Values[j] = r.f64()
		}
	}
	if r.err != nil {
		return r.err
	}
	// Optional v4 trace context: a v3 frame simply ends here, leaving Trace
	// zero ("no trace"). The field is consumed only when exactly its size
	// remains and it names a trace, as encodeBody writes it — a partial or
	// padded remainder, or one with both IDs zero, is left in place, so
	// Recv's trailing-bytes check rejects it like any other corruption.
	if rest := r.buf[r.off:]; len(rest) == traceFieldSize && binary.BigEndian.Uint64(rest)|binary.BigEndian.Uint64(rest[8:]) != 0 {
		m.Trace.TraceID = r.u64()
		m.Trace.SpanID = r.u64()
		m.Trace.Sampled = r.u8()&1 != 0
		m.Trace.SentUnixNano = r.i64()
	} else {
		m.Trace = telemetry.SpanContext{}
	}
	return r.err
}

// ClockSync pushes the controller's UTC time to an agent (§4.1: master-slave
// clock distribution, repeated every 5 seconds).
type ClockSync struct {
	MasterMillis int64
}

// Type implements Message.
func (*ClockSync) Type() MsgType { return TypeClockSync }

func (m *ClockSync) encodeBody(w *writer)       { w.i64(m.MasterMillis) }
func (m *ClockSync) decodeBody(r *reader) error { m.MasterMillis = r.i64(); return r.err }

// ClockAck reports the agent's clock after applying a sync, letting the
// controller estimate residual skew and network delay.
type ClockAck struct {
	AgentID     string
	AgentMillis int64
}

// Type implements Message.
func (*ClockAck) Type() MsgType { return TypeClockAck }

func (m *ClockAck) encodeBody(w *writer) {
	w.str(m.AgentID)
	w.i64(m.AgentMillis)
}

func (m *ClockAck) decodeBody(r *reader) error {
	m.AgentID = r.str()
	m.AgentMillis = r.i64()
	return r.err
}

// Ack acknowledges a batch.
type Ack struct {
	Count uint32 // readings accepted
	// Seq echoes the sequence number of the acknowledged batch (protocol v2),
	// 0 for hello/heartbeat/legacy acks. Under chaos a duplicated frame makes
	// the controller ack twice; the echoed sequence lets the agent match each
	// ack to its in-flight batch and skip stale ones instead of advancing on
	// an ack that belongs to an already-settled batch.
	Seq uint64
	// Credits is the controller's admission grant (protocol v3), encoded with
	// EncodeCredits: 0 means "no credit signal" (a pre-v3 peer or a controller
	// without a streaming sink — flow is unlimited), and any non-zero value V
	// grants V-1 classification slots. The off-by-one keeps the zero value
	// backward compatible while still letting a saturated controller say
	// "zero slots": on that grant the agent defers flushes (heartbeating to
	// refresh the grant) so pressure lands on its bounded spill buffer, the
	// pipeline's single shedding valve.
	Credits uint32
}

// EncodeCredits maps an admission grant of n slots onto Ack.Credits,
// reserving 0 for "no credit signal". Saturates instead of wrapping.
func EncodeCredits(n uint32) uint32 {
	if n == ^uint32(0) {
		return n
	}
	return n + 1
}

// DecodeCredits inverts EncodeCredits: ok is false when the ack carried no
// credit signal and flow should be treated as unlimited.
func DecodeCredits(v uint32) (n uint32, ok bool) {
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// Type implements Message.
func (*Ack) Type() MsgType { return TypeAck }

func (m *Ack) encodeBody(w *writer) {
	w.u32(m.Count)
	w.u64(m.Seq)
	w.u32(m.Credits)
}

func (m *Ack) decodeBody(r *reader) error {
	m.Count = r.u32()
	m.Seq = r.u64()
	m.Credits = r.u32()
	return r.err
}

// Heartbeat proves agent liveness when there is nothing to flush (protocol
// v2). The controller answers with an Ack; together with the controller's
// read deadline it lets dead connections be reaped instead of leaking their
// serve goroutines.
type Heartbeat struct {
	AgentID string
}

// Type implements Message.
func (*Heartbeat) Type() MsgType { return TypeHeartbeat }

func (m *Heartbeat) encodeBody(w *writer)       { w.str(m.AgentID) }
func (m *Heartbeat) decodeBody(r *reader) error { m.AgentID = r.str(); return r.err }

// --- Framing -----------------------------------------------------------------

// Conn frames messages over an io.ReadWriter and counts traffic, giving the
// controller the byte-level accounting its processing policy's bandwidth
// estimates build on.
type Conn struct {
	br *bufio.Reader
	w  io.Writer

	// scratch is the frame buffer Send reuses across calls. A Conn is
	// owned by a single goroutine (one reader or writer loop per transport
	// stream), so no locking is needed.
	scratch writer

	bytesRead    int64
	bytesWritten int64
}

// NewConn wraps a transport stream.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{br: bufio.NewReader(rw), w: rw}
}

// readDeadliner is the deadline surface of net.Conn (and net.Pipe ends).
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// SetReadDeadline arms a read deadline on the underlying transport when it
// supports one (net.Conn does; plain in-memory buffers do not, in which case
// this is a no-op). The controller uses it to reap dead connections.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if d, ok := c.w.(readDeadliner); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

// Close closes the underlying transport when it supports closing (net.Conn
// and chaos transports do; plain in-memory buffers do not, in which case this
// is a no-op). Closing unblocks a peer waiting in Recv, which sees io.EOF or
// the transport's close error.
func (c *Conn) Close() error {
	if cl, ok := c.w.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// Send writes one framed message. It runs once per sample batch on every
// connection, so header and body are encoded into the per-Conn scratch
// buffer and issued as a single Write: one syscall per frame, and fault
// injectors wrapping the transport see whole frames, never split ones.
//
//lint:hotpath
func (c *Conn) Send(m Message) error {
	body := &c.scratch
	// Reserve the 4-byte length prefix, encode the frame behind it, then
	// patch the prefix in place.
	body.buf = append(body.buf[:0], 0, 0, 0, 0)
	body.u8(uint8(m.Type()))
	m.encodeBody(body)
	if len(body.buf)-4 > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(body.buf[:4], uint32(len(body.buf)-4))
	if _, err := c.w.Write(body.buf); err != nil {
		//lint:ignore hotalloc error path tears the connection down; allocation is irrelevant there
		return fmt.Errorf("wire: write frame: %w", err)
	}
	c.bytesWritten += int64(len(body.buf))
	mBytesSent.Add(int64(len(body.buf)))
	mMsgsSent.Inc()
	return nil
}

// BytesWritten returns the total framed bytes sent on this connection.
func (c *Conn) BytesWritten() int64 { return c.bytesWritten }

// BytesRead returns the total framed bytes received on this connection.
func (c *Conn) BytesRead() int64 { return c.bytesRead }

// Recv reads one framed message. io.EOF is returned unchanged on a clean
// close between frames.
func (c *Conn) Recv() (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > MaxFrameSize {
		mDecodeErrors.Inc()
		return nil, ErrFrameTooLarge
	}
	if size == 0 {
		mDecodeErrors.Inc()
		return nil, ErrEmptyFrame
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, fmt.Errorf("wire: read body: %w", err)
	}
	c.bytesRead += int64(len(hdr)) + int64(size)
	r := &reader{buf: buf}
	var m Message
	switch MsgType(r.u8()) {
	case TypeHello:
		m = &Hello{}
	case TypeSampleBatch:
		m = &SampleBatch{}
	case TypeClockSync:
		m = &ClockSync{}
	case TypeClockAck:
		m = &ClockAck{}
	case TypeAck:
		m = &Ack{}
	case TypeHeartbeat:
		m = &Heartbeat{}
	case TypeClassifyRequest:
		m = &ClassifyRequest{}
	case TypeClassifyResponse:
		m = &ClassifyResponse{}
	default:
		mDecodeErrors.Inc()
		return nil, fmt.Errorf("%w %d", ErrUnknownType, buf[0])
	}
	if err := m.decodeBody(r); err != nil {
		mDecodeErrors.Inc()
		return nil, err
	}
	if r.off != len(r.buf) {
		mDecodeErrors.Inc()
		return nil, fmt.Errorf("%w: %d bytes past the last field", ErrTrailingBytes, len(r.buf)-r.off)
	}
	mBytesRecv.Add(int64(len(hdr)) + int64(size))
	mMsgsRecv.Inc()
	return m, nil
}

// --- Binary primitives --------------------------------------------------------

type writer struct{ buf []byte }

func (w *writer) u8(v uint8) { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}
func (w *writer) u64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}
func (w *writer) i64(v int64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v))
}
func (w *writer) f64(v float64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

type reader struct {
	buf []byte
	off int
	err error
}

// fits reports whether n fields of at least size bytes each remain in the
// frame, recording ErrTruncatedFrame when they do not, so a corrupt count
// fails before it sizes an allocation rather than after.
func (r *reader) fits(n uint32, size int) bool {
	if r.err == nil && uint64(n)*uint64(size) > uint64(len(r.buf)-r.off) {
		r.err = ErrTruncatedFrame
	}
	return r.err == nil
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncatedFrame
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func (r *reader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 1<<16 {
		r.err = fmt.Errorf("%w: string of %d bytes rejected", ErrFieldTooLarge, n)
		return ""
	}
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}
