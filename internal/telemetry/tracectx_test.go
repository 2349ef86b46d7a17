package telemetry

import (
	"testing"
	"time"
)

// findChild returns the first direct child with the given name, or nil.
func findChild(n *TraceNode, name string) *TraceNode {
	if n == nil {
		return nil
	}
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func TestSpanContextIdentity(t *testing.T) {
	tr := NewTracer(8, 1)
	root := tr.StartRoot("darnet_ctx_root")
	child := root.StartChild("darnet_ctx_child")
	rc, cc := root.Context(), child.Context()
	if !rc.Valid() || !cc.Valid() {
		t.Fatalf("sampled span contexts must be valid: root=%+v child=%+v", rc, cc)
	}
	if rc.TraceID != cc.TraceID {
		t.Fatalf("child trace ID %x != root trace ID %x", cc.TraceID, rc.TraceID)
	}
	if rc.SpanID == cc.SpanID {
		t.Fatalf("span IDs must differ, both %x", rc.SpanID)
	}
	if !rc.Sampled {
		t.Fatalf("sampled root's context must propagate the sampling bit")
	}
	child.End()
	root.End()

	if c := (*Span)(nil).Context(); c.Valid() {
		t.Fatalf("nil span context must be the absent zero value, got %+v", c)
	}
	if (SpanContext{}).Valid() {
		t.Fatalf("zero context must be invalid")
	}
}

func TestJoinRemoteForcesSampling(t *testing.T) {
	tr := NewTracer(8, 0) // local sampling disabled entirely
	joined := tr.JoinRemote("darnet_ctx_joined", SpanContext{TraceID: 7, SpanID: 9, Sampled: true})
	if !joined.Sampled() {
		t.Fatalf("joining a sampled remote context must sample locally")
	}
	joined.End()
	traces := tr.RecentTraces()
	if len(traces) != 1 || traces[0].Name != "darnet_ctx_joined" {
		t.Fatalf("joined trace not retained: %+v", traces)
	}
	if !traces[0].Remote || traces[0].ParentSpanID == "" {
		t.Fatalf("joined fragment must record its remote parent: %+v", traces[0])
	}

	// An unsampled remote context must NOT be retained, and an invalid one
	// degrades to a plain local root under the local sampling policy.
	tr.JoinRemote("darnet_ctx_unsampled", SpanContext{TraceID: 7, SpanID: 9}).End()
	tr.JoinRemote("darnet_ctx_legacy", SpanContext{}).End()
	if n := len(tr.RecentTraces()); n != 1 {
		t.Fatalf("unsampled/legacy joins must not be retained, have %d traces", n)
	}
}

func TestSegmentRecordsSyntheticChild(t *testing.T) {
	tr := NewTracer(8, 1)
	root := tr.StartRoot("darnet_seg_root")
	start := time.Now().Add(-50 * time.Millisecond)
	root.Segment("darnet_stage_wire_transit", start, 50*time.Millisecond)
	root.Segment("darnet_stage_skewed", start, -time.Second) // clamps to 0
	root.End()
	tree := tr.RecentTraces()[0]
	seg := findChild(tree, "darnet_stage_wire_transit")
	if seg == nil {
		t.Fatalf("segment missing from tree: %+v", tree)
	}
	if seg.DurationNanos != int64(50*time.Millisecond) || seg.StartUnixNano != start.UnixNano() {
		t.Fatalf("segment interval wrong: %+v", seg)
	}
	if sk := findChild(tree, "darnet_stage_skewed"); sk == nil || sk.DurationNanos != 0 {
		t.Fatalf("negative segment duration must clamp to zero: %+v", sk)
	}
	// Unsampled parents take no segments (and do not allocate).
	un := NewTracer(8, 0).StartRoot("darnet_seg_unsampled")
	un.Segment("darnet_stage_noop", start, time.Millisecond)
	un.End()
}

func TestMergedTracesStitchFragments(t *testing.T) {
	tr := NewTracer(16, 1)

	// Process A: the agent-side flush root.
	flush := tr.StartRoot("darnet_agent_flush_batch")
	fc := flush.Context()

	// Process B: the controller joins the flush context; its stream_offer
	// child's context is in turn joined by the async pipeline tick.
	ingest := tr.JoinRemote("darnet_ingest_batch", fc)
	offer := ingest.StartChild("darnet_stage_stream_offer")
	oc := offer.Context()
	offer.End()
	ingest.End()

	tick := tr.JoinRemote("darnet_stream_tick", oc)
	tick.Segment("darnet_stage_queue_dwell", time.Now(), time.Millisecond)
	tick.End()

	flush.End() // the agent root completes last, after its ack

	merged := tr.MergedTraces()
	if len(merged) != 1 {
		t.Fatalf("want 1 stitched trace, got %d: %+v", len(merged), merged)
	}
	root := merged[0]
	if root.Name != "darnet_agent_flush_batch" {
		t.Fatalf("stitched root is %q, want the flush fragment", root.Name)
	}
	ing := findChild(root, "darnet_ingest_batch")
	if ing == nil || !ing.Remote {
		t.Fatalf("ingest fragment not attached under flush: %+v", root)
	}
	off := findChild(ing, "darnet_stage_stream_offer")
	if off == nil {
		t.Fatalf("offer child missing: %+v", ing)
	}
	tk := findChild(off, "darnet_stream_tick")
	if tk == nil || findChild(tk, "darnet_stage_queue_dwell") == nil {
		t.Fatalf("tick fragment (with dwell segment) not attached under offer: %+v", off)
	}
}

func TestMergedTracesOrphanFragmentStaysTopLevel(t *testing.T) {
	tr := NewTracer(16, 1)
	// Parent fragment lives in another process (or was evicted): the join
	// target is never recorded here.
	orphan := tr.JoinRemote("darnet_ingest_batch", SpanContext{TraceID: 3, SpanID: 4, Sampled: true})
	orphan.End()
	merged := tr.MergedTraces()
	if len(merged) != 1 || merged[0].Name != "darnet_ingest_batch" {
		t.Fatalf("orphan fragment must remain a top-level trace: %+v", merged)
	}
	if !merged[0].Remote {
		t.Fatalf("orphan keeps its remote marker: %+v", merged[0])
	}
}

// TestTraceContextPropagationAllocationFree pins the tentpole guarantee:
// with propagation ON, the unsampled (63-of-64) path — capture a context,
// join it remotely, attempt a segment — still allocates nothing.
func TestTraceContextPropagationAllocationFree(t *testing.T) {
	tr := NewTracer(8, 0)
	for i := 0; i < 16; i++ {
		s := tr.StartRoot("darnet_warm")
		tr.JoinRemote("darnet_warm_join", s.Context()).End()
		s.End()
	}
	n := testing.AllocsPerRun(1000, func() {
		s := tr.StartRoot("darnet_alloc_flush")
		rc := s.Context()
		j := tr.JoinRemote("darnet_alloc_ingest", rc)
		j.Segment("darnet_stage_wire_transit", s.start, 0)
		j.End()
		s.End()
	})
	if n != 0 {
		t.Fatalf("unsampled propagation allocates %.1f per op, want 0", n)
	}
}

// TestLargeTraceKeepsItsRoot pins per-trace retention: a sampled batch whose
// stream ticks join far more fragments than the ring's capacity must not
// evict its own flush root and ingest fragment, and the joined fragments it
// keeps are bounded.
func TestLargeTraceKeepsItsRoot(t *testing.T) {
	tr := NewTracer(4, 1)
	older := tr.StartRoot("darnet_agent_flush_batch")
	older.End()

	flush := tr.StartRoot("darnet_agent_flush_batch")
	ingest := tr.JoinRemote("darnet_ingest_batch", flush.Context())
	offer := ingest.StartChild("darnet_stage_stream_offer")
	oc := offer.Context()
	offer.End()
	ingest.End()
	for i := 0; i < 10*maxJoinedPerTrace; i++ {
		tr.JoinRemote("darnet_stream_tick", oc).End()
	}
	flush.End()

	if got := len(tr.RecentTraces()); got != 2+maxJoinedPerTrace {
		t.Fatalf("ring holds %d fragments, want both flush roots plus %d joined", got, maxJoinedPerTrace)
	}
	merged := tr.MergedTraces()
	if len(merged) != 2 || merged[0].Name != "darnet_agent_flush_batch" || merged[1].Name != "darnet_agent_flush_batch" {
		t.Fatalf("want two flush-rooted traces, got %+v", merged)
	}
	ing := findChild(merged[1], "darnet_ingest_batch")
	if ing == nil {
		t.Fatal("ingest fragment evicted by its own ticks")
	}
	if off := findChild(ing, "darnet_stage_stream_offer"); off == nil || len(off.Children) != maxJoinedPerTrace-1 {
		t.Fatalf("offer keeps %v tick fragments, want %d", off, maxJoinedPerTrace-1)
	}

	// Whole traces age out oldest first once capacity traces are exceeded.
	for i := 0; i < 4; i++ {
		tr.StartRoot("darnet_trace").End()
	}
	for _, n := range tr.RecentTraces() {
		if n.Name != "darnet_trace" {
			t.Fatalf("older trace fragment %q survived eviction", n.Name)
		}
	}
}
