package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"darnet/internal/durable"
	"darnet/internal/telemetry"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

func TestDurOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    durOptions
		ok   bool
	}{
		{"defaults-off", durOptions{fsync: "interval"}, true},
		{"on-always", durOptions{dataDir: "/tmp/x", fsync: "always", ckptEvery: time.Minute}, true},
		{"on-never-no-ticker", durOptions{dataDir: "/tmp/x", fsync: "never"}, true},
		{"bad-policy", durOptions{fsync: "sometimes"}, false},
		{"negative-interval", durOptions{fsync: "interval", ckptEvery: -time.Second}, false},
	}
	for _, tc := range cases {
		err := tc.o.validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// runDurableController drives one runControllerWith generation against the
// given data directory and returns everything it printed.
func runDurableController(t *testing.T, dir string, fn func(addr string)) string {
	t.Helper()
	ln := listenLoopback(t)
	sOpts := streamOptions{queueCap: 8, skipMax: 2, dwell: 50 * time.Millisecond}
	oOpts := obsOptions{retention: time.Hour, alertP99: 0.5} // bridge off
	dOpts := durOptions{dataDir: dir, fsync: "always", ckptEvery: time.Hour}
	out := &syncWriter{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runControllerWith(ln, nil, 0, sOpts, oOpts, dOpts, stop, out)
	}()
	fn(ln.Addr().String())
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runControllerWith: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runControllerWith did not return after stop")
	}
	return out.String()
}

// storedPoints pulls the point count of one series out of the controller's
// session-summary output.
func storedPoints(t *testing.T, out, series string) int {
	t.Helper()
	re := regexp.MustCompile(`series ` + regexp.QuoteMeta(series) + `\s+(\d+) points`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("series %s not in summary output:\n%s", series, out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// crashUncommittedFrame opens the data directory the way darnetd does, logs
// one camera frame whose batch never commits, syncs it to disk, and
// abandons the manager without its shutdown checkpoint: a crash between the
// frame append and the batch's commit mark.
func crashUncommittedFrame(t *testing.T, dir string) {
	t.Helper()
	fs, err := durable.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, _, err := durable.Open(tsdb.New(), durable.Options{FS: fs, Policy: durable.PolicyAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := man.AppendFrame("car-1", 25, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if err := man.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerRestartRecoversSessions is the darnetd-level restart check:
// generation 1 stores batches under -data-dir and checkpoints on shutdown; a
// crash then leaves an uncommitted frame in the log; generation 2 recovers
// the sessions, reports the discarded frame on its recovery line, dedupes
// retransmitted pre-restart batches, and reports durability state in its
// shutdown summary.
func TestControllerRestartRecoversSessions(t *testing.T) {
	dir := t.TempDir()

	out1 := runDurableController(t, dir, func(addr string) {
		c := dialObsClient(t, addr, "car-1")
		c.sendBatch([]wire.Reading{{TimestampMillis: 10, Sensor: "s", Values: []float64{1}}}, telemetry.SpanContext{})
		c.sendBatch([]wire.Reading{{TimestampMillis: 20, Sensor: "s", Values: []float64{2}}}, telemetry.SpanContext{})
	})
	if !strings.Contains(out1, "durability on (data-dir ") {
		t.Fatalf("generation 1 never announced durability:\n%s", out1)
	}
	sum1 := parseShutdownSummary(t, out1)
	if sum1.FsyncPolicy != "always" || sum1.CheckpointGen == 0 || sum1.WALBytes == 0 {
		t.Fatalf("generation 1 summary lacks durability state: %+v", sum1)
	}
	if got := storedPoints(t, out1, "car-1/s[0]"); got != 2 {
		t.Fatalf("generation 1 stored %d points, want 2", got)
	}

	crashUncommittedFrame(t, dir)

	out2 := runDurableController(t, dir, func(addr string) {
		c := dialObsClient(t, addr, "car-1")
		// Client sequence numbers restart at 1: both sends retransmit
		// pre-restart batches the recovered marks must dedupe, the third is
		// genuinely new.
		c.sendBatch([]wire.Reading{{TimestampMillis: 10, Sensor: "s", Values: []float64{-1}}}, telemetry.SpanContext{})
		c.sendBatch([]wire.Reading{{TimestampMillis: 20, Sensor: "s", Values: []float64{-2}}}, telemetry.SpanContext{})
		c.sendBatch([]wire.Reading{{TimestampMillis: 30, Sensor: "s", Values: []float64{3}}}, telemetry.SpanContext{})
	})
	if !strings.Contains(out2, "recovery: sessions=1") {
		t.Fatalf("generation 2 did not recover the session:\n%s", out2)
	}
	if !strings.Contains(out2, " discarded=0 discarded_frames=1 ") {
		t.Fatalf("generation 2's recovery line must report the uncommitted frame:\n%s", out2)
	}
	sum2 := parseShutdownSummary(t, out2)
	if sum2.Agents != 1 {
		t.Fatalf("generation 2 summary agents = %d, want 1", sum2.Agents)
	}
	if sum2.CheckpointGen <= sum1.CheckpointGen {
		t.Fatalf("checkpoint generation did not advance across restart: %d -> %d", sum1.CheckpointGen, sum2.CheckpointGen)
	}
	// 2 recovered + 1 new; the two retransmissions must not have stored.
	if got := storedPoints(t, out2, "car-1/s[0]"); got != 3 {
		t.Fatalf("generation 2 holds %d points, want 3 (2 recovered + 1 new, replays deduped)", got)
	}
}
