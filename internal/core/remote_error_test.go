package core

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"darnet/internal/imu"
	"darnet/internal/wire"
)

// serveClassifyOn runs ServeClassifyCtx over one end of a pipe and reports its
// result. The zero Engine is enough: every case here fails in the protocol
// layer before any model is touched.
func serveClassifyOn(conn net.Conn) chan error {
	done := make(chan error, 1)
	go func() {
		done <- (&Engine{}).ServeClassifyCtx(context.Background(), wire.NewConn(conn))
	}()
	return done
}

// rawFrame writes a frame header claiming size payload bytes followed by
// len(body) actual bytes.
func rawFrame(t *testing.T, w io.Writer, size uint32, body []byte) {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], size)
	if _, err := w.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServeClassifyTruncatedFrame(t *testing.T) {
	client, server := net.Pipe()
	done := serveClassifyOn(server)

	// Header promises 100 bytes; the connection dies after 10.
	rawFrame(t, client, 100, make([]byte, 10))
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	err := <-done
	if err == nil {
		t.Fatal("ServeClassifyCtx accepted a truncated frame")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame error = %v, want io.ErrUnexpectedEOF in the chain", err)
	}
}

func TestServeClassifyOversizedPayload(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	done := serveClassifyOn(server)

	rawFrame(t, client, wire.MaxFrameSize+1, nil)

	err := <-done
	if err == nil {
		t.Fatal("ServeClassifyCtx accepted an oversized frame")
	}
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized frame error = %v, want wire.ErrFrameTooLarge in the chain", err)
	}
}

func TestServeClassifyWrongMessageType(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	done := serveClassifyOn(server)

	go func() {
		// Ignore the send error: the server may close the pipe first.
		_ = wire.NewConn(client).Send(&wire.Hello{AgentID: "x", Modality: "imu"})
	}()

	err := <-done
	if err == nil {
		t.Fatal("ServeClassifyCtx accepted a non-classify message")
	}
}

func TestRemoteClassifyServerGone(t *testing.T) {
	client, server := net.Pipe()
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	window := imu.Window{Samples: make([]imu.Sample, 1)}
	_, err := RemoteClassify(wire.NewConn(client), make([]float64, 4), 2, 2, 0, window)
	if err == nil {
		t.Fatal("RemoteClassify succeeded against a closed server")
	}
}

// TestRemoteClassifyServerDisconnectsMidExchange covers the server vanishing
// after accepting the request but before answering.
func TestRemoteClassifyServerDisconnectsMidExchange(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		// Swallow exactly one inbound frame, then hang up without replying.
		_, _ = wire.NewConn(server).Recv()
		_ = server.Close()
	}()

	window := imu.Window{Samples: make([]imu.Sample, 1)}
	_, err := RemoteClassify(wire.NewConn(client), make([]float64, 4), 2, 2, 0, window)
	if err == nil {
		t.Fatal("RemoteClassify succeeded with no response")
	}
}
