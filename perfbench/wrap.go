package main

import (
	"encoding/binary"
	"net"
	"strings"
	"time"

	"darnet/internal/collect"
	"darnet/internal/core"
	"darnet/internal/durable"
	"darnet/internal/imu"
	"darnet/internal/stream"
	"darnet/internal/telemetry"
	"darnet/internal/wire"
)

// The traced run times the program from outside, at the seams it already
// has: the transport handed to wire.NewConn, durable.FS and durable.File,
// collect.StreamSink and stream.Ticker. Each wrapper forwards everything it
// does not time, deadline and close methods included, so timeouts behave
// exactly as in the untraced run.

// frameTap follows the frame boundaries of one direction of a wire stream:
// a 4-byte big-endian length, then the type byte and the body.
type frameTap struct {
	hdr     [5]byte
	nhdr    int
	pending int // header bytes seen before the type byte arrived
	left    int // body bytes of the current frame still to come
	typ     wire.MsgType
}

// feed consumes p and calls fn once for every frame p carries bytes of,
// with the frame's type, the number of its bytes in p and whether p
// completes it.
func (t *frameTap) feed(p []byte, fn func(typ wire.MsgType, n int, done bool)) {
	for len(p) > 0 {
		n := 0
		if t.nhdr < len(t.hdr) {
			k := copy(t.hdr[t.nhdr:], p)
			t.nhdr += k
			p = p[k:]
			if t.nhdr < len(t.hdr) {
				t.pending += k
				return
			}
			n = t.pending + k
			t.pending = 0
			t.typ = wire.MsgType(t.hdr[4])
			t.left = max(0, int(binary.BigEndian.Uint32(t.hdr[:4]))-1)
		}
		k := min(t.left, len(p))
		t.left -= k
		p = p[k:]
		n += k
		done := t.left == 0
		if done {
			t.nhdr = 0
		}
		fn(t.typ, n, done)
	}
}

// agentConn wraps an agent's transport: it counts the writes and bytes of
// sample-batch frames.
type agentConn struct {
	net.Conn
	rec *recorder
	out frameTap
}

func (c *agentConn) Write(p []byte) (int, error) {
	if c.rec.active() {
		c.out.feed(p, func(typ wire.MsgType, n int, _ bool) {
			if typ == wire.TypeSampleBatch {
				c.rec.tally("wire.batch_writes", 1)
				c.rec.tally("wire.batch_bytes", int64(n))
			}
		})
	}
	return c.Conn.Write(p)
}

// serverConn wraps the controller's side of a connection: the time from
// reading the last byte of a sample batch to writing the last byte of the
// next ack is one serve span.
type serverConn struct {
	net.Conn
	rec      *recorder
	conn     uint64 // connection index, the high half of the span op
	batches  uint64
	in, out  frameTap
	readDone time.Time
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.rec.active() {
		now := time.Now()
		c.in.feed(p[:n], func(typ wire.MsgType, _ int, done bool) {
			if done && typ == wire.TypeSampleBatch {
				c.readDone = now
			}
		})
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.rec.active() {
		now := time.Now()
		c.out.feed(p[:n], func(typ wire.MsgType, _ int, done bool) {
			if done && typ == wire.TypeAck && !c.readDone.IsZero() {
				c.batches++
				c.rec.span("collect.serve", c.conn<<32|c.batches, 0, c.readDone, now)
				c.readDone = time.Time{}
			}
		})
	}
	return n, err
}

// tapFS wraps a durable.FS so every file it creates is a tapFile.
type tapFS struct {
	durable.FS
	rec *recorder
}

func (f *tapFS) Create(name string) (durable.File, error) {
	h, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	kind := "durable.ckpt"
	if strings.HasPrefix(name, "wal-") {
		kind = "durable.wal"
	}
	return &tapFile{File: h, rec: f.rec, writes: f.rec.total(kind + "_write"),
		bytes: f.rec.total(kind + "_bytes"), sync: kind + "_sync"}, nil
}

// tapFile times and counts the writes and syncs of one durable file. The
// WAL is written once per point, so the write totals are resolved once, at
// Create.
type tapFile struct {
	durable.File
	rec           *recorder
	writes, bytes *total
	sync          string // span name of Sync
}

func (f *tapFile) Write(p []byte) (int, error) {
	if !f.rec.active() {
		return f.File.Write(p)
	}
	s := time.Now()
	n, err := f.File.Write(p)
	f.writes.ns.Add(int64(time.Since(s)))
	f.writes.n.Add(1)
	f.bytes.n.Add(int64(n))
	return n, err
}

func (f *tapFile) Sync() error {
	if !f.rec.active() {
		return f.File.Sync()
	}
	s := time.Now()
	err := f.File.Sync()
	f.rec.span(f.sync, 0, 0, s, time.Now())
	return err
}

// tapSink wraps the stream mux as the controller's collect.StreamSink and
// times each Offer.
type tapSink struct {
	inner collect.StreamSink
	rec   *recorder
}

func (s *tapSink) Offer(agentID string, readings []wire.Reading, trace telemetry.SpanContext) (int, uint32) {
	if !s.rec.active() {
		return s.inner.Offer(agentID, readings, trace)
	}
	t0 := time.Now()
	n, credits := s.inner.Offer(agentID, readings, trace)
	s.rec.observe("stream.offer", time.Since(t0))
	return n, credits
}

func (s *tapSink) Credits(agentID string) uint32 { return s.inner.Credits(agentID) }

// markTicker wraps a stream.Ticker. It remembers the timestamp of the
// sample that completed the last window, so the decision callback, which
// runs on the same worker goroutine right after Tick, knows which window it
// decided. With a recorder on, it also times every tick by kind.
type markTicker struct {
	inner  stream.Ticker
	rec    *recorder
	lastTS int64
}

func (m *markTicker) Tick(sample *imu.Sample, frame []float64, skipFrame bool) (*core.Classification, bool, error) {
	on := m.rec.active()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	cls, skipped, err := m.inner.Tick(sample, frame, skipFrame)
	if cls != nil && sample != nil {
		m.lastTS = sample.TimestampMillis
	}
	if on {
		d := time.Since(t0)
		switch {
		case frame != nil:
			if !skipped {
				m.rec.observe("stream.tick_frame", d)
			}
		case cls != nil:
			m.rec.span("stream.tick_window", uint64(m.lastTS), 0, t0, t0.Add(d))
		default:
			m.rec.observe("stream.tick_sample", d)
		}
	}
	return cls, skipped, err
}
