package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"darnet/internal/collect"
	"darnet/internal/durable"
	"darnet/internal/tsdb"
	"darnet/internal/wire"
)

// ackTimeout is darnetd's default bound on each wait for an ack.
const ackTimeout = 5 * time.Second

// env is a running controller as darnetd -data-dir runs one: a tsdb store
// recovered by durable.Open with fsync policy interval, a collect.Controller
// with the manager as its commit log, and a loopback TCP listener serving
// agent connections.
type env struct {
	db   *tsdb.DB
	mgr  *durable.Manager
	ctrl *collect.Controller
	ln   net.Listener
	rec  *recorder // nil in an untraced run
	dir  string    // data directory, removed by close when set

	wg    sync.WaitGroup // accept loop and connection goroutines
	mu    sync.Mutex
	conns []net.Conn // accepted, closed by close
	errs  []error    // ServeConn errors other than a clean disconnect
}

// openEnv recovers the store in dir and starts the controller. The
// durable.Open call alone is timed and returned.
func openEnv(dir string, rec *recorder, now collect.TimeSource) (*env, *durable.Recovery, time.Duration, error) {
	dfs, err := durable.NewDirFS(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	var fs durable.FS = dfs
	if rec != nil {
		fs = &tapFS{FS: dfs, rec: rec}
	}
	db := tsdb.New()
	start := time.Now()
	mgr, recov, err := durable.Open(db, durable.Options{FS: fs, Policy: durable.PolicyInterval, CheckpointEvery: -1})
	took := time.Since(start)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("recover %s: %w", dir, err)
	}
	ctrl := collect.NewController(db, now)
	ctrl.RestoreSessions(recov.Sessions)
	ctrl.RestoreFrames(recov.Frames)
	ctrl.SetCommitLog(mgr)
	mgr.SetSessionSource(ctrl.SessionSnapshot)
	mgr.SetFrameSource(ctrl.FrameSnapshot)
	mgr.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, errors.Join(err, mgr.Close())
	}
	e := &env{db: db, mgr: mgr, ctrl: ctrl, ln: ln, rec: rec}
	e.wg.Add(1)
	go e.accept()
	return e, recov, took, nil
}

func (e *env) accept() {
	defer e.wg.Done()
	for i := uint64(0); ; i++ {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		if e.rec != nil {
			c = &serverConn{Conn: c, rec: e.rec, conn: i}
		}
		e.mu.Lock()
		e.conns = append(e.conns, c)
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			if err := e.ctrl.ServeConn(wire.NewConn(c)); err != nil && !errors.Is(err, io.EOF) {
				e.mu.Lock()
				e.errs = append(e.errs, err)
				e.mu.Unlock()
			}
		}()
	}
}

// dial opens an agent connection to the controller.
func (e *env) dial() (net.Conn, *wire.Conn, error) {
	c, err := net.Dial("tcp", e.ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	var rw net.Conn = c
	if e.rec != nil {
		rw = &agentConn{Conn: c, rec: e.rec}
	}
	return c, wire.NewConn(rw), nil
}

// close stops the listener, closes every connection, waits for every
// goroutine the env started and closes the durability manager (which writes
// the shutdown checkpoint). It returns the ServeConn errors seen while
// agents were connected, if any.
func (e *env) close() error {
	err := e.ln.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		//lint:ignore errdrop teardown; the agents closed their ends, so the connection is finished
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
	err = errors.Join(err, e.mgr.Close())
	if e.dir != "" {
		err = errors.Join(err, os.RemoveAll(e.dir))
	}
	return err
}

// serveErrors returns the errors the controller's connection goroutines
// returned before close.
func (e *env) serveErrors() []error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]error(nil), e.errs...)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// wallMillis is darnetd's controller clock.
func wallMillis() int64 { return time.Now().UnixMilli() }
