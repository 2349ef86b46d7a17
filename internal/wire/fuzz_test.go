package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// recvAll decodes data frame after frame until Recv fails, returning the
// accepted messages with the bytes each consumed.
func recvAll(data []byte) (msgs []Message, frames [][]byte, err error) {
	c := NewConn(duplex{Reader: bytes.NewReader(data), Writer: io.Discard})
	for {
		before := c.BytesRead()
		m, err := c.Recv()
		if err != nil {
			return msgs, frames, err
		}
		msgs = append(msgs, m)
		frames = append(frames, data[before:c.BytesRead()])
	}
}

// FuzzConnRecv feeds arbitrary bytes to Conn.Recv, frame after frame. Recv
// must not panic; a header declaring more than MaxFrameSize fails with
// ErrFrameTooLarge before the frame is allocated; no frame makes Recv
// allocate more than a few times its declared size; input that ends inside
// a declared frame is an error, never a message, and so is any accepted
// frame cut short by a byte; and every accepted message survives Send →
// Recv unchanged.
func FuzzConnRecv(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msgs, frames, err := recvAll(data)
		runtime.ReadMemStats(&after)

		// Where the first rejected frame starts, and what it declared.
		off := 0
		for _, fr := range frames {
			off += len(fr)
		}
		declared := uint64(off)
		rest := data[off:]
		switch {
		case len(rest) == 0:
			if err != io.EOF {
				t.Fatalf("clean end of stream returned %v, want io.EOF", err)
			}
		case len(rest) < 4:
			if err == nil || err == io.EOF {
				t.Fatalf("a %d-byte header returned %v", len(rest), err)
			}
		default:
			size := binary.BigEndian.Uint32(rest)
			switch {
			case size > MaxFrameSize:
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("a %d-byte frame returned %v, want ErrFrameTooLarge", size, err)
				}
			case uint64(len(rest)-4) < uint64(size) && (err == nil || err == io.EOF):
				t.Fatalf("a %d-byte frame cut to %d bytes returned %v", size, len(rest)-4, err)
			default:
				declared += 4 + uint64(size)
			}
		}
		// Frames are allocated at their declared size; decoding one may
		// allocate a few times that, never what a corrupt count asks for.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*declared+1<<20 {
			t.Fatalf("frames declaring %d bytes allocated %d bytes", declared, grew)
		}

		for i, m := range msgs {
			fr := frames[i]
			if _, err := NewConn(rwBuf(fr[:len(fr)-1])).Recv(); err == nil {
				t.Fatalf("frame %d (%T) cut short by a byte decoded", i, m)
			}
			var buf bytes.Buffer
			if err := NewConn(&buf).Send(m); err != nil {
				t.Fatalf("accepted %T does not encode: %v", m, err)
			}
			sent := bytes.Clone(buf.Bytes())
			again, err := NewConn(&buf).Recv()
			if err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", m, err)
			}
			if got, want := fmt.Sprintf("%#v", again), fmt.Sprintf("%#v", m); got != want {
				t.Fatalf("Send → Recv changed the message:\n got %s\nwant %s", got, want)
			}
			var resent bytes.Buffer
			if err := NewConn(&resent).Send(again); err != nil || !bytes.Equal(resent.Bytes(), sent) {
				t.Fatalf("Send → Recv → Send changed the bytes (%v):\n got %x\nwant %x", err, resent.Bytes(), sent)
			}
		}
	})
}
