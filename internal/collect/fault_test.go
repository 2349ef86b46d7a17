package collect

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

// pipeSensors returns a single one-value sensor list for fault tests.
func faultSensors() []Sensor {
	v := 0.0
	return []Sensor{SensorFunc{SensorName: "s", ReadFunc: func() []float64 {
		v++
		return []float64{v}
	}}}
}

// serveController starts a controller serving every connection handed to it
// and returns a dialer producing fresh agent-side connections.
func serveController(t *testing.T, ctrl *Controller) Dialer {
	t.Helper()
	return func() (*wire.Conn, error) {
		aRaw, cRaw := net.Pipe()
		go func() {
			//lint:ignore errdrop chaos sessions die by design; assertions run on stored data
			ctrl.ServeConn(wire.NewConn(cRaw))
		}()
		return wire.NewConn(aRaw), nil
	}
}

func TestShutdownIdempotentAndConcurrent(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	dial := serveController(t, ctrl)
	conn, _ := dial()
	clock := NewDriftClock(wallMillis, 0)
	agent, err := NewAgent(AgentConfig{ID: "idem", Modality: "imu", PollPeriodMS: 5}, clock, faultSensors(), conn)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := StartRunnerConfig(agent, RunnerConfig{FlushEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runner.Shutdown()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("Shutdown call %d returned %v, call 0 returned %v — not idempotent", i, err, errs[0])
		}
	}
	if got := runner.Err(); got != errs[0] {
		t.Fatalf("Err() = %v after Shutdown() = %v", got, errs[0])
	}
	// A late Shutdown after the loop is long gone is still safe.
	if err := runner.Shutdown(); err != errs[0] {
		t.Fatalf("post-mortem Shutdown = %v, want %v", err, errs[0])
	}
}

func TestRunnerReconnectsWithBackoff(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	dial := serveController(t, ctrl)
	conn, _ := dial()
	clock := NewDriftClock(wallMillis, 0)
	agent, err := NewAgent(AgentConfig{ID: "rc", Modality: "imu", PollPeriodMS: 5, AckTimeout: time.Second}, clock, faultSensors(), conn)
	if err != nil {
		t.Fatal(err)
	}
	before := mReconnects.Value()
	runner, err := StartRunnerConfig(agent, RunnerConfig{
		FlushEvery:  15 * time.Millisecond,
		Dialer:      dial,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	// Sever the link out from under the runner: the next flush fails and the
	// reconnect path must bring a fresh session up.
	conn.Close()
	deadline := time.After(5 * time.Second)
	for runner.Reconnects() == 0 {
		select {
		case <-deadline:
			t.Fatalf("no reconnect after severed link; runner err = %v", runner.Err())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Data keeps flowing on the new session.
	wasStored := db.Len("rc/s[0]")
	deadline = time.After(5 * time.Second)
	for db.Len("rc/s[0]") <= wasStored {
		select {
		case <-deadline:
			t.Fatal("no new readings stored after reconnect")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := runner.Shutdown(); err != nil {
		t.Fatalf("shutdown after recovery: %v", err)
	}
	if got := mReconnects.Value() - before; got < 1 {
		t.Fatalf("darnet_collect_reconnects_total moved by %d, want >= 1", got)
	}
	st, ok := ctrl.AgentStats("rc")
	if !ok {
		t.Fatal("agent unknown to controller")
	}
	if st.Sessions < 2 {
		t.Fatalf("sessions = %d, want >= 2 (resume after reconnect)", st.Sessions)
	}
}

func TestRunnerGivesUpAfterMaxAttempts(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	dial := serveController(t, ctrl)
	conn, _ := dial()
	clock := NewDriftClock(wallMillis, 0)
	agent, err := NewAgent(AgentConfig{ID: "gu", Modality: "imu", PollPeriodMS: 5, AckTimeout: 50 * time.Millisecond}, clock, faultSensors(), conn)
	if err != nil {
		t.Fatal(err)
	}
	dialErr := errors.New("dial refused")
	runner, err := StartRunnerConfig(agent, RunnerConfig{
		FlushEvery:  10 * time.Millisecond,
		Dialer:      func() (*wire.Conn, error) { return nil, dialErr },
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.After(5 * time.Second)
	for runner.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("runner never gave up")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if got := runner.Shutdown(); !errors.Is(got, dialErr) {
		t.Fatalf("give-up error = %v, want wrap of the dial error", got)
	}
}

func TestSpillBufferDropsOldestFirst(t *testing.T) {
	clock := NewDriftClock(NewManualTime(0).Now, 0)
	mt := NewManualTime(0)
	clock = NewDriftClock(mt.Now, 0)
	agent, err := NewAgent(AgentConfig{ID: "sp", MaxSpill: 3}, clock, faultSensors(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := mSpillDropped.Value()
	for i := 0; i < 5; i++ {
		agent.Poll()
		mt.Advance(10)
	}
	if got := agent.Buffered(); got != 3 {
		t.Fatalf("buffered = %d, want the MaxSpill bound 3", got)
	}
	if got := agent.SpillDropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if got := mSpillDropped.Value() - before; got != 2 {
		t.Fatalf("darnet_collect_spill_dropped_total moved by %d, want 2", got)
	}
	// Oldest first: the survivors are the three most recent polls (t=20,30,40).
	if ts := agent.buf[0].TimestampMillis; ts != 20 {
		t.Fatalf("oldest surviving reading at t=%d, want 20", ts)
	}
	// Unbounded agents never drop.
	unbounded, err := NewAgent(AgentConfig{ID: "un", MaxSpill: -1}, clock, faultSensors(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultMaxSpill+10; i++ {
		unbounded.Poll()
	}
	if got := unbounded.SpillDropped(); got != 0 {
		t.Fatalf("unbounded agent dropped %d readings", got)
	}
}

// dialAndHello opens a raw wire session against the controller and completes
// the handshake, returning the agent-side conn.
func dialAndHello(t *testing.T, ctrl *Controller, id string) *wire.Conn {
	t.Helper()
	aRaw, cRaw := net.Pipe()
	go func() {
		//lint:ignore errdrop handshake-only sessions are torn down by the test
		ctrl.ServeConn(wire.NewConn(cRaw))
	}()
	conn := wire.NewConn(aRaw)
	if err := conn.Send(&wire.Hello{AgentID: id, Modality: "imu", PeriodMillis: 25}); err != nil {
		t.Fatal(err)
	}
	if msg, err := conn.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*wire.Ack); !ok {
		t.Fatalf("handshake reply %T, want ack", msg)
	}
	return conn
}

func sendBatch(t *testing.T, conn *wire.Conn, id string, seq uint64) {
	t.Helper()
	batch := &wire.SampleBatch{AgentID: id, Seq: seq, Readings: []wire.Reading{
		{TimestampMillis: int64(seq * 10), Sensor: "s", Values: []float64{float64(seq)}},
	}}
	if err := conn.Send(batch); err != nil {
		t.Fatal(err)
	}
	for {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case *wire.Ack:
			return
		case *wire.ClockSync:
			if err := conn.Send(&wire.ClockAck{AgentID: id, AgentMillis: m.MasterMillis}); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected %T while awaiting batch ack", msg)
		}
	}
}

func TestControllerDedupesReplaysAcrossResume(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	dedupedBefore := mDeduped.Value()
	resumedBefore := mResumed.Value()

	conn1 := dialAndHello(t, ctrl, "dd")
	sendBatch(t, conn1, "dd", 1)
	sendBatch(t, conn1, "dd", 1) // replay on the same connection: ack, no store
	sendBatch(t, conn1, "dd", 2)
	conn1.Close()

	// Reconnect: the replayed batch 2 must still be recognized — dedupe state
	// belongs to the agent session, not the connection.
	conn2 := dialAndHello(t, ctrl, "dd")
	sendBatch(t, conn2, "dd", 2)
	sendBatch(t, conn2, "dd", 3)
	conn2.Close()

	if got := db.Len("dd/s[0]"); got != 3 {
		t.Fatalf("%d rows stored, want 3 (seqs 1,2,3 exactly once)", got)
	}
	st, ok := ctrl.AgentStats("dd")
	if !ok {
		t.Fatal("agent unknown")
	}
	if st.Deduped != 2 {
		t.Fatalf("deduped = %d, want 2", st.Deduped)
	}
	if st.LastSeq != 3 {
		t.Fatalf("lastSeq = %d, want 3", st.LastSeq)
	}
	if st.Sessions != 2 {
		t.Fatalf("sessions = %d, want 2", st.Sessions)
	}
	if got := mDeduped.Value() - dedupedBefore; got != 2 {
		t.Fatalf("darnet_collect_batches_deduped_total moved by %d, want 2", got)
	}
	if got := mResumed.Value() - resumedBefore; got != 1 {
		t.Fatalf("darnet_collect_sessions_resumed_total moved by %d, want 1", got)
	}
}

func TestLegacySeqZeroIsNeverDeduped(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	conn := dialAndHello(t, ctrl, "v1")
	defer conn.Close()
	sendBatch(t, conn, "v1", 0)
	sendBatch(t, conn, "v1", 0)
	if got := db.Len("v1/s[0]"); got != 2 {
		t.Fatalf("%d rows, want 2: protocol-v1 batches carry no seq and must never be deduped", got)
	}
}

func TestIdleConnectionIsReaped(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	ctrl.SetIdleTimeout(50 * time.Millisecond)
	before := mIdleReaps.Value()
	aRaw, cRaw := net.Pipe()
	defer aRaw.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ctrl.ServeConn(wire.NewConn(cRaw)) }()
	// Say nothing at all: the handshake read must hit the deadline.
	select {
	case err := <-serveDone:
		if !errors.Is(err, ErrIdleReaped) {
			t.Fatalf("reap error = %v, want ErrIdleReaped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent connection was never reaped")
	}
	if got := mIdleReaps.Value() - before; got != 1 {
		t.Fatalf("darnet_collect_idle_reaps_total moved by %d, want 1", got)
	}
}

func TestHeartbeatKeepsIdleSessionAlive(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	ctrl.SetIdleTimeout(80 * time.Millisecond)
	hbBefore := mHeartbeatsRx.Value()
	conn := dialAndHello(t, ctrl, "hb")
	defer conn.Close()
	// Stay silent except for heartbeats well inside the deadline; the session
	// must survive several deadline windows.
	for i := 0; i < 6; i++ {
		time.Sleep(30 * time.Millisecond)
		if err := conn.Send(&wire.Heartbeat{AgentID: "hb"}); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		if msg, err := conn.Recv(); err != nil {
			t.Fatalf("heartbeat ack %d: %v", i, err)
		} else if _, ok := msg.(*wire.Ack); !ok {
			t.Fatalf("heartbeat reply %T, want ack", msg)
		}
	}
	// The session is still live: a batch goes through.
	sendBatch(t, conn, "hb", 1)
	if got := db.Len("hb/s[0]"); got != 1 {
		t.Fatalf("%d rows after heartbeats, want 1", got)
	}
	if got := mHeartbeatsRx.Value() - hbBefore; got != 6 {
		t.Fatalf("darnet_collect_heartbeats_total moved by %d, want 6", got)
	}
}

func TestAgentAckTimeoutSurfacesDeadController(t *testing.T) {
	aRaw, cRaw := net.Pipe()
	defer cRaw.Close()
	defer aRaw.Close()
	clock := NewDriftClock(wallMillis, 0)
	agent, err := NewAgent(AgentConfig{ID: "to", AckTimeout: 50 * time.Millisecond}, clock, faultSensors(), wire.NewConn(aRaw))
	if err != nil {
		t.Fatal(err)
	}
	// Nobody ever reads cRaw or acks: Hello must fail by deadline, not hang.
	done := make(chan error, 1)
	go func() { done <- agent.Hello() }()
	go func() { // drain the controller side so Send itself succeeds
		buf := make([]byte, 1024)
		for {
			if _, err := cRaw.Read(buf); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("hello succeeded with a mute controller")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hello hung despite AckTimeout")
	}
}

func TestStaleAckIsSkippedByFlush(t *testing.T) {
	aRaw, cRaw := net.Pipe()
	defer aRaw.Close()
	defer cRaw.Close()
	clock := NewDriftClock(wallMillis, 0)
	agent, err := NewAgent(AgentConfig{ID: "sa"}, clock, faultSensors(), wire.NewConn(aRaw))
	if err != nil {
		t.Fatal(err)
	}
	// Hand-rolled controller side: ack the hello, then answer the batch with
	// a stale ack (seq 0, as a duplicated earlier frame would provoke) before
	// the real one. Flush must wait for the matching ack.
	ctrlDone := make(chan error, 1)
	go func() {
		c := wire.NewConn(cRaw)
		if _, err := c.Recv(); err != nil { // hello
			ctrlDone <- err
			return
		}
		if err := c.Send(&wire.Ack{}); err != nil {
			ctrlDone <- err
			return
		}
		if _, err := c.Recv(); err != nil { // batch seq 1
			ctrlDone <- err
			return
		}
		if err := c.Send(&wire.Ack{Seq: 0}); err != nil { // stale
			ctrlDone <- err
			return
		}
		ctrlDone <- c.Send(&wire.Ack{Seq: 1, Count: 1}) // the real ack
	}()
	if err := agent.Hello(); err != nil {
		t.Fatal(err)
	}
	agent.Poll()
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := <-ctrlDone; err != nil {
		t.Fatal(err)
	}
	if agent.NextSeq() != 2 {
		t.Fatalf("next seq = %d, want 2 (batch 1 settled)", agent.NextSeq())
	}
	if agent.Buffered() != 0 {
		t.Fatalf("buffered = %d after settled flush, want 0", agent.Buffered())
	}
}

func TestRetransmitKeepsFrozenBatch(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	dial := serveController(t, ctrl)
	clock := NewDriftClock(wallMillis, 0)
	agent, err := NewAgent(AgentConfig{ID: "fz", AckTimeout: 50 * time.Millisecond}, clock, faultSensors(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// First flush against a dead transport: the batch freezes as pending.
	deadA, deadC := net.Pipe()
	deadC.Close()
	deadA.Close()
	agent.conn = wire.NewConn(deadA)
	agent.Poll()
	agent.Poll()
	if err := agent.Flush(); err == nil {
		t.Fatal("flush over a dead pipe succeeded")
	}
	frozen := len(agent.pending)
	if frozen != 2 {
		t.Fatalf("pending = %d readings, want 2", frozen)
	}
	// More polls during the outage spill separately, not into the frozen batch.
	agent.Poll()
	if len(agent.pending) != frozen {
		t.Fatal("pending batch grew after freezing — retransmit would not be byte-identical")
	}
	if agent.Buffered() != 3 {
		t.Fatalf("buffered = %d, want 3", agent.Buffered())
	}
	// Reconnect and drain: pending goes out with seq 1, the spill with seq 2.
	conn, _ := dial()
	if err := agent.Reconnect(conn); err != nil {
		t.Fatal(err)
	}
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if agent.Buffered() != 0 {
		t.Fatalf("buffered = %d after draining, want 0", agent.Buffered())
	}
	st, _ := ctrl.AgentStats("fz")
	if st.LastSeq != 2 {
		t.Fatalf("lastSeq = %d, want 2", st.LastSeq)
	}
	if got := db.Len(fmt.Sprintf("fz/s[%d]", 0)); got != 3 {
		t.Fatalf("%d rows stored, want 3", got)
	}
}
