package darnet_test

import (
	"fmt"
	"net"
	"time"

	"darnet"
)

// ClassNames enumerates the paper's six driver behaviour classes.
func ExampleClassNames() {
	for i, name := range darnet.ClassNames() {
		fmt.Printf("%d %s\n", i+1, name)
	}
	// Output:
	// 1 Normal Driving
	// 2 Talking
	// 3 Texting
	// 4 Eating/Drinking
	// 5 Hair and Makeup
	// 6 Reaching
}

// The alerter debounces the per-window classification stream into the
// paper's real-time driver alerts. It scores each window's distracted
// evidence, 1 − P(normal driving). The score must stay at or above 0.6 for
// the dwell to raise, and at or below 0.4 as long to clear.
func ExampleAlerter() {
	alerter, err := darnet.NewAlerter(darnet.AlertConfig{
		NormalClass: int(darnet.NormalDriving),
		Dwell:       2 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	window := func(c darnet.Class, p float64) *darnet.Classification {
		probs := make([]float64, darnet.NumClasses)
		probs[darnet.NormalDriving] = 1 - p
		probs[c] += p
		return &darnet.Classification{Class: int(c), Probs: probs}
	}
	session := []*darnet.Classification{
		window(darnet.NormalDriving, 0.1),
		window(darnet.Texting, 0.9), // one window: the dwell starts
		window(darnet.Texting, 0.8), // 5 s later, past the 2 s dwell: raise
		window(darnet.NormalDriving, 0.2),
		window(darnet.NormalDriving, 0.1), // sustained: clear
	}
	start := time.Unix(0, 0)
	for i, c := range session {
		now := start.Add(time.Duration(i) * 5 * time.Second) // 5 s IMU windows
		if ev := alerter.Observe(now, c); ev != darnet.AlertNone {
			fmt.Printf("%v -> alert %v\n", darnet.Class(c.Class), ev)
		}
	}
	// Output:
	// Texting -> alert raised
	// Normal Driving -> alert cleared
}

// Example_collectionPipeline sketches the full middleware wiring: a
// controller accepting TCP connections, an IMU agent streaming through a
// managed runner, and the controller's engine bridge assembling windows.
// (No Output comment: this example is compile-checked but not executed —
// it needs a live TCP listener.)
func Example_collectionPipeline() {
	db := darnet.NewTSDB()
	now := func() int64 { return time.Now().UnixMilli() }
	ctrl := darnet.NewController(db, now)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = ctrl.ServeConn(darnet.NewWireConn(conn))
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		panic(err)
	}
	clock := darnet.NewDriftClock(now, 0.002)
	var current darnet.IMUSample
	agent, err := darnet.NewAgent(darnet.AgentConfig{
		ID: "phone", Modality: "imu", PollPeriodMS: 25, LatencyComp: 2,
	}, clock, darnet.IMUSensors(func() darnet.IMUSample { return current }), darnet.NewWireConn(raw))
	if err != nil {
		panic(err)
	}
	runner, err := darnet.StartAgentRunner(agent, 500*time.Millisecond, func() {
		current = darnet.IMUSample{} // read the real sensor here
	})
	if err != nil {
		panic(err)
	}
	defer runner.Shutdown()

	// Later: align the stored streams into classifier-ready windows.
	windows, err := ctrl.AssembleIMUWindows("phone", 3)
	if err == nil {
		fmt.Println(len(windows))
	}
}
