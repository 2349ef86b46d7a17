package collect

import (
	"net"
	"testing"
	"time"

	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

func wallMillis() int64 { return time.Now().UnixMilli() }

func TestRunnerStreamsUntilShutdown(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	aRaw, cRaw := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ctrl.ServeConn(wire.NewConn(cRaw)) }()

	clock := NewDriftClock(wallMillis, 0)
	polls := 0
	sensors := []Sensor{SensorFunc{SensorName: "s", ReadFunc: func() []float64 { return []float64{1} }}}
	agent, err := NewAgent(AgentConfig{ID: "rt", Modality: "imu", PollPeriodMS: 5}, clock, sensors, wire.NewConn(aRaw))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := StartRunnerConfig(agent, RunnerConfig{FlushEvery: 20 * time.Millisecond, OnPoll: func() { polls++ }})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if err := runner.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Shutdown twice is safe.
	if err := runner.Shutdown(); err != nil {
		t.Fatal(err)
	}
	aRaw.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("controller: %v", err)
	}
	if polls < 5 {
		t.Fatalf("only %d polls in 120 ms at a 5 ms period", polls)
	}
	if got := db.Len("rt/s[0]"); got < 5 {
		t.Fatalf("only %d readings stored", got)
	}
	st, _ := ctrl.AgentStats("rt")
	if st.Batches < 2 {
		t.Fatalf("only %d batches", st.Batches)
	}
}

func TestRunnerSurfacesTransportFailure(t *testing.T) {
	db := tsdb.New()
	ctrl := NewController(db, wallMillis)
	aRaw, cRaw := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ctrl.ServeConn(wire.NewConn(cRaw)) }()

	clock := NewDriftClock(wallMillis, 0)
	sensors := []Sensor{SensorFunc{SensorName: "s", ReadFunc: func() []float64 { return []float64{1} }}}
	agent, err := NewAgent(AgentConfig{ID: "rt2", Modality: "imu", PollPeriodMS: 5}, clock, sensors, wire.NewConn(aRaw))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := StartRunnerConfig(agent, RunnerConfig{FlushEvery: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the link mid-session: the next flush must fail and stop the loop.
	time.Sleep(30 * time.Millisecond)
	cRaw.Close()
	aRaw.Close()
	deadline := time.After(2 * time.Second)
	for runner.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("runner did not observe the broken transport")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := runner.Shutdown(); err == nil {
		t.Fatal("shutdown should report the transport error")
	}
	<-serveDone // controller side finishes with or without error
}

func TestStartRunnerValidation(t *testing.T) {
	if _, err := StartRunnerConfig(nil, RunnerConfig{FlushEvery: time.Second}); err == nil {
		t.Fatal("expected nil-agent error")
	}
	clock := NewDriftClock(wallMillis, 0)
	sensors := []Sensor{SensorFunc{SensorName: "s", ReadFunc: func() []float64 { return nil }}}
	agent, err := NewAgent(AgentConfig{ID: "x"}, clock, sensors, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartRunnerConfig(agent, RunnerConfig{FlushEvery: 0}); err == nil {
		t.Fatal("expected cadence error")
	}
}
