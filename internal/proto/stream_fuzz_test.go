package proto

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzReadStreamFrames drives the mux demux reader with adversarial
// stream-frame sequences — interleaved ids, truncations, duplicates
// after end, unknown ids, illegal types, credit floods — through a real
// muxConn over an in-memory pipe. Invariants: never a panic, never a
// chunk delivered to the wrong stream (payloads carry a per-stream
// marker byte), and every violation fails typed via poison rather than
// wedging a consumer.
func FuzzReadStreamFrames(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x08, 0x20, 0x00, 0x30, 0x18, 0x00}) // interleave + ends
	f.Add([]byte{0x02, 0x00})                                     // unknown id
	f.Add([]byte{0x06, 0x00})                                     // illegal type
	f.Add([]byte{0x07})                                           // truncated frame
	f.Add([]byte{0x00, 0xFF, 0x01, 0xFF, 0x00, 0xFF, 0x01, 0xFF, 0x04, 0x00, 0x05, 0x00})
	f.Add([]byte{0x03, 0x00, 0x00, 0x10}) // data after end (retired id)

	f.Fuzz(func(t *testing.T, script []byte) {
		clientEnd, serverEnd := net.Pipe()
		defer clientEnd.Close()
		defer serverEnd.Close()
		m := newMuxConn(clientEnd, newEpMetrics(nil), time.Minute)

		// Drain everything the client side emits (preface, credits).
		go io.Copy(io.Discard, serverEnd)

		const marker1, marker2 = 0xA5, 0x5A
		st1, err := m.registerStream(4, 512, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := m.registerStream(4, 512, time.Minute)
		if err != nil {
			t.Fatal(err)
		}

		// One consumer per stream: validates that every delivered data
		// chunk carries its own stream's marker, returns chunks to the
		// pool, and retires the stream on its terminal frame — mirroring
		// what ReadStream does.
		errc := make(chan error, 2)
		consume := func(st *Stream, marker byte) {
			for {
				select {
				case msg := <-st.recv:
					if msg.t == TDataFrame {
						for _, b := range msg.payload {
							if b != marker {
								PutChunk(msg.payload)
								errc <- fmt.Errorf("stream %d got byte %#x, want marker %#x",
									st.id, b, marker)
								return
							}
						}
						PutChunk(msg.payload)
						continue
					}
					if streamTerminal(msg.t) {
						errc <- nil
						return
					}
				case <-st.done:
					if st.fault() == nil {
						errc <- fmt.Errorf("stream %d done without a fault", st.id)
						return
					}
					errc <- nil
					return
				}
			}
		}
		go consume(st1, marker1)
		go consume(st2, marker2)

		// Interpret the fuzz input as a frame script from the peer.
		payload := func(marker byte, n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = marker
			}
			return b
		}
		i := 0
		next := func() byte {
			if i >= len(script) {
				return 0
			}
			b := script[i]
			i++
			return b
		}
		for i < len(script) {
			op := next() % 8
			size := int(next())%512 + 1
			var werr error
			switch op {
			case 0:
				werr = WriteFrameID(serverEnd, TDataFrame, st1.id, payload(marker1, size))
			case 1:
				werr = WriteFrameID(serverEnd, TDataFrame, st2.id, payload(marker2, size))
			case 2:
				werr = WriteFrameID(serverEnd, TDataFrame, 999, payload(0xEE, size))
			case 3:
				werr = WriteFrameID(serverEnd, TStreamEnd, st1.id, StreamEnd{}.Encode())
			case 4:
				werr = WriteFrameID(serverEnd, TStreamCredit, st1.id, StreamCredit{N: uint32(size)}.Encode())
			case 5:
				werr = WriteFrameID(serverEnd, TStreamAbort, st2.id, ErrorMsg{Msg: "fuzzed"}.Encode())
			case 6:
				werr = WriteFrameID(serverEnd, TLookupResp, st1.id, payload(0xCC, size))
			case 7:
				// Truncated frame: a header promising more than follows.
				hdr := appendFrameID(nil, TDataFrame, st1.id, payload(marker1, size))
				serverEnd.Write(hdr[:len(hdr)-1])
				i = len(script) // nothing sane can follow
			}
			if werr != nil {
				break // reader poisoned and closed the pipe; expected
			}
		}
		// Tear the connection down; whatever is still open must fail.
		serverEnd.Close()

		for j := 0; j < 2; j++ {
			select {
			case err := <-errc:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("consumer wedged: stream neither delivered nor failed")
			}
		}
		// The read loop may still be on its way to noticing the close.
		select {
		case <-m.done:
		case <-time.After(5 * time.Second):
			t.Fatal("connection alive after pipe close")
		}
	})
}
