package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTracer is the process-wide tracer the instrumented pipeline stages
// report to and /tracez serves. It samples the first of every 64 root spans
// (so the very first trace of a fresh process is always captured) and keeps
// the 32 most recent completed traces.
var DefaultTracer = NewTracer(32, 64)

// Tracer creates spans and retains a ring of recently completed sampled
// traces. Unsampled spans are recycled through a pool, so the span
// start/stop hot path is allocation-free after warm-up; only the 1-in-N
// sampled traces allocate (their trees are retained for /tracez).
//
// Retention counts traces, not fragments: a sampled batch joins a stream
// tick fragment per admitted input, which must not evict the batch's own
// flush root. The oldest trace is evicted whole, and each trace keeps at
// most maxJoinedPerTrace remotely joined fragments.
type Tracer struct {
	sampleEvery int64 // 0 disables sampling entirely; 1 samples every root
	capacity    int   // retained traces
	seq         atomic.Int64
	pool        sync.Pool

	mu        sync.Mutex
	recent    []*Span        // completed sampled root fragments, oldest first
	fragments map[uint64]int // trace ID -> its fragments in recent
}

// maxJoinedPerTrace bounds the remotely joined fragments one retained trace
// keeps; later ones are dropped. A trace's local root is always kept.
const maxJoinedPerTrace = 32

// NewTracer returns a tracer keeping up to capacity completed traces and
// sampling the first of every sampleEvery root spans (0 = never sample,
// 1 = sample every root).
func NewTracer(capacity, sampleEvery int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{sampleEvery: int64(sampleEvery), capacity: capacity, fragments: make(map[uint64]int)}
	t.pool.New = func() any { return &Span{} }
	return t
}

// Span is one timed pipeline stage. Spans form parent/child trees; a
// sampled root's completed tree is retained by its tracer. The zero Span is
// not usable; obtain spans from a Tracer. A nil *Span is safe to use: all
// methods no-op, so instrumented code never needs nil checks.
type Span struct {
	tracer   *Tracer
	parent   *Span // nil for roots
	name     string
	start    time.Time
	durNanos int64
	sampled  bool
	ended    atomic.Bool

	// Trace identity (see tracectx.go): traceID is shared by every span of
	// the trace, spanID is unique per span, and remoteParent carries the
	// span ID a remotely-joined root hangs under when traces are merged.
	traceID      uint64
	spanID       uint64
	remoteParent uint64

	mu       sync.Mutex
	children []*Span // tracked only when sampled
}

// StartRoot begins a new trace. The returned span must be ended; its
// children are created with StartChild.
//
//lint:hotpath
func (t *Tracer) StartRoot(name string) *Span {
	seq := t.seq.Add(1)
	sampled := t.sampleEvery > 0 && (seq-1)%t.sampleEvery == 0
	return t.newSpan(name, nil, sampled)
}

func (t *Tracer) newSpan(name string, parent *Span, sampled bool) *Span {
	var s *Span
	if sampled {
		//lint:ignore hotalloc the sampled 1-in-N branch retains its span tree and is never pooled
		s = &Span{}
	} else {
		s = t.pool.Get().(*Span)
		s.children = nil
	}
	s.tracer = t
	s.parent = parent
	s.name = name
	s.sampled = sampled
	s.durNanos = 0
	s.spanID = newID()
	if parent != nil {
		s.traceID = parent.traceID
	} else {
		s.traceID = newID()
	}
	s.remoteParent = 0
	s.ended.Store(false)
	s.start = time.Now()
	return s
}

// StartChild begins a child stage of s. Safe to call from multiple
// goroutines on the same parent. On a nil span it returns nil.
//
//lint:hotpath
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.tracer.newSpan(name, s, s.sampled)
	if s.sampled {
		s.mu.Lock()
		s.children = append(s.children, c)
		s.mu.Unlock()
	}
	return c
}

// End stops the span's clock. Ending a sampled root span publishes the
// completed trace to the tracer for /tracez. End is idempotent; on a nil
// span it no-ops. An unsampled span must not be used after End (it is
// recycled through the tracer's pool).
//
//lint:hotpath
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.durNanos = int64(time.Since(s.start))
	if !s.sampled {
		s.tracer.pool.Put(s)
		return
	}
	if s.parent == nil {
		s.tracer.record(s)
	}
}

// Sampled reports whether this span's trace is retained by the tracer.
func (s *Span) Sampled() bool { return s != nil && s.sampled }

// DurationNanos returns the span duration after End (0 before).
func (s *Span) DurationNanos() int64 {
	if s == nil {
		return 0
	}
	return s.durNanos
}

func (t *Tracer) record(root *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.fragments[root.traceID]
	if root.remoteParent != 0 && n >= maxJoinedPerTrace {
		return
	}
	t.recent = append(t.recent, root)
	t.fragments[root.traceID] = n + 1
	for len(t.fragments) > t.capacity {
		oldest := t.recent[0].traceID
		kept := t.recent[:0]
		for _, s := range t.recent {
			if s.traceID != oldest {
				kept = append(kept, s)
			}
		}
		clear(t.recent[len(kept):])
		t.recent = kept
		delete(t.fragments, oldest)
	}
}

// TraceNode is the exportable form of a completed span tree. TraceID is set
// on root fragments; ParentSpanID and Remote mark a fragment that joined a
// remote context (MergedTraces re-attaches it under that parent when both
// fragments are local).
type TraceNode struct {
	Name          string       `json:"name"`
	StartUnixNano int64        `json:"start_unix_nano"`
	DurationNanos int64        `json:"duration_ns"`
	TraceID       string       `json:"trace_id,omitempty"`
	SpanID        string       `json:"span_id,omitempty"`
	ParentSpanID  string       `json:"parent_span_id,omitempty"`
	Remote        bool         `json:"remote,omitempty"`
	Children      []*TraceNode `json:"children,omitempty"`

	// Numeric identities for merge-time stitching (the exported hex forms
	// are for human and JSON consumers).
	traceID      uint64
	spanID       uint64
	parentSpanID uint64
}

// Tree converts a completed sampled span into an exportable trace tree
// (nil for nil, unsampled, or still-running spans).
func (s *Span) Tree() *TraceNode {
	if s == nil || !s.sampled || !s.ended.Load() {
		return nil
	}
	n := &TraceNode{
		Name:          s.name,
		StartUnixNano: s.start.UnixNano(),
		DurationNanos: s.durNanos,
		SpanID:        fmt.Sprintf("%016x", s.spanID),
		traceID:       s.traceID,
		spanID:        s.spanID,
	}
	if s.parent == nil {
		n.TraceID = fmt.Sprintf("%016x", s.traceID)
	}
	if s.remoteParent != 0 {
		n.ParentSpanID = fmt.Sprintf("%016x", s.remoteParent)
		n.Remote = true
		n.parentSpanID = s.remoteParent
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		if cn := c.Tree(); cn != nil {
			n.Children = append(n.Children, cn)
		}
	}
	return n
}

// RecentTraces returns the completed sampled traces, oldest first.
func (t *Tracer) RecentTraces() []*TraceNode {
	t.mu.Lock()
	roots := append([]*Span(nil), t.recent...)
	t.mu.Unlock()
	out := make([]*TraceNode, 0, len(roots))
	for _, r := range roots {
		if n := r.Tree(); n != nil {
			out = append(out, n)
		}
	}
	return out
}

// RenderTree renders a trace tree as indented text, one stage per line with
// its duration — the human-readable form the -telemetry CLI flags print.
func RenderTree(n *TraceNode) string {
	var b strings.Builder
	renderNode(&b, n, 0)
	return b.String()
}

func renderNode(b *strings.Builder, n *TraceNode, depth int) {
	if n == nil {
		return
	}
	fmt.Fprintf(b, "%s%s %v\n", strings.Repeat("  ", depth), n.Name, time.Duration(n.DurationNanos).Round(time.Microsecond))
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying s, for threading the current
// span across API boundaries. This is the only span operation that
// allocates; hot loops should pass *Span directly.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan begins a stage as a child of the span carried by ctx (or as a
// new root when ctx carries none) and returns a derived context carrying
// the new span.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	var s *Span
	if parent := SpanFromContext(ctx); parent != nil {
		s = parent.StartChild(name)
	} else {
		s = t.StartRoot(name)
	}
	return ContextWithSpan(ctx, s), s
}
