package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eevfs/internal/telemetry"
)

func TestFrameIDRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello, mux")
	if err := WriteFrameID(&buf, TLookupReq, 42, payload); err != nil {
		t.Fatal(err)
	}
	ty, id, got, err := ReadFrameID(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ty != TLookupReq || id != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("got type=%d id=%d payload=%q", ty, id, got)
	}
}

func TestFrameIDEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameID(&buf, TListReq, 7, nil); err != nil {
		t.Fatal(err)
	}
	ty, id, got, err := ReadFrameID(&buf)
	if err != nil || ty != TListReq || id != 7 || len(got) != 0 {
		t.Fatalf("type=%d id=%d payload=%q err=%v", ty, id, got, err)
	}
}

func TestReadFrameIDShortHeader(t *testing.T) {
	// length 4 < the 5-byte type+id header.
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[:4], 4)
	if _, _, _, err := ReadFrameID(bytes.NewReader(hdr[:])); !errors.Is(err, ErrShortV2Frame) {
		t.Fatalf("err = %v, want ErrShortV2Frame", err)
	}
}

func TestReadFrameIDOversized(t *testing.T) {
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	if _, _, _, err := ReadFrameID(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestWriteFrameIDTooLarge(t *testing.T) {
	big := make([]byte, MaxFrame)
	if err := WriteFrameID(io.Discard, TListReq, 1, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestMagicNeverAValidFrameLength pins the framing invariant: the
// preface read as a length prefix must always exceed MaxFrame, so a frame
// reader handed a preface rejects it instead of parsing it.
func TestMagicNeverAValidFrameLength(t *testing.T) {
	if MagicV2 <= MaxFrame {
		t.Fatalf("MagicV2 (%#x) must exceed MaxFrame (%#x)", MagicV2, MaxFrame)
	}
}

// TestConcurrentCallersOneConnection is the core mux property: many
// goroutines calling through one endpoint share a single connection,
// every response lands at the caller that sent the matching request,
// and no crossed ids slip through. Run under -race.
func TestConcurrentCallersOneConnection(t *testing.T) {
	addr := frameServer(t, func(ty Type, p []byte) (Type, []byte, bool) {
		return ty + 1, append([]byte("echo:"), p...), true
	})
	d := &countingDialer{}
	ep := NewEndpoint(addr, d, fastRetry(0))
	defer ep.Close()

	const callers, perCaller = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				req := fmt.Sprintf("caller-%d-call-%d", c, i)
				_, rp, err := ep.Call(TLookupReq, []byte(req))
				if err != nil {
					errs <- err
					return
				}
				if want := "echo:" + req; string(rp) != want {
					errs <- fmt.Errorf("crossed response: got %q, want %q", rp, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dials, _ := d.stats(); dials != 1 {
		t.Fatalf("dials = %d, want 1 (all callers share one connection)", dials)
	}
}

// muxServer runs a raw v2 peer with full control over response order.
func muxServer(t *testing.T, serve func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if err := consumePreface(c); err != nil {
					return
				}
				serve(c)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestOutOfOrderResponsesDemuxed: the peer answers two pipelined
// requests in reverse arrival order; each caller must still receive its
// own response. This is exactly what the serialized v1 endpoint could
// never do.
func TestOutOfOrderResponsesDemuxed(t *testing.T) {
	addr := muxServer(t, func(c net.Conn) {
		for {
			type reqFrame struct {
				ty      Type
				id      uint32
				payload []byte
			}
			var batch []reqFrame
			for len(batch) < 2 {
				ty, id, p, err := ReadFrameID(c)
				if err != nil {
					return
				}
				batch = append(batch, reqFrame{ty, id, p})
			}
			for i := len(batch) - 1; i >= 0; i-- { // reversed
				f := batch[i]
				if err := WriteFrameID(c, f.ty, f.id, append([]byte("r:"), f.payload...)); err != nil {
					return
				}
			}
		}
	})
	ep := NewEndpoint(addr, nil, fastRetry(0))
	defer ep.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, name := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			_, rp, err := ep.Call(TLookupReq, []byte(name))
			if err != nil {
				errs <- err
				return
			}
			if want := "r:" + name; string(rp) != want {
				errs <- fmt.Errorf("got %q, want %q", rp, want)
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoisonFailsAllOutstanding: the peer swallows a batch of pipelined
// requests and slams the connection; every outstanding caller must get
// a typed *TransportError (no hangs, no nils), and the next call must
// redial a fresh connection and succeed.
func TestPoisonFailsAllOutstanding(t *testing.T) {
	const batch = 8
	var accepted atomic.Int64
	addr := muxServer(t, func(c net.Conn) {
		if accepted.Add(1) == 1 {
			// First connection: read a full batch, answer nothing, die.
			for i := 0; i < batch; i++ {
				if _, _, _, err := ReadFrameID(c); err != nil {
					return
				}
			}
			return // defer closes the conn: poison
		}
		// Later connections behave.
		for {
			ty, id, p, err := ReadFrameID(c)
			if err != nil {
				return
			}
			if err := WriteFrameID(c, ty, id, p); err != nil {
				return
			}
		}
	})
	d := &countingDialer{}
	cfg := fastRetry(-1) // single attempt: surface the poison, don't mask it
	ep := NewEndpoint(addr, d, cfg)
	defer ep.Close()

	var wg sync.WaitGroup
	errs := make(chan error, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := ep.Call(TLookupReq, []byte{byte(i)})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		var te *TransportError
		if !errors.As(err, &te) {
			t.Fatalf("outstanding call got %v, want *TransportError", err)
		}
	}
	if _, _, err := ep.Call(TListReq, []byte("again")); err != nil {
		t.Fatalf("call after poison must redial and succeed, got %v", err)
	}
	if dials, _ := d.stats(); dials != 2 {
		t.Fatalf("dials = %d, want 2 (poisoned conn discarded, one redial)", dials)
	}
}

// TestRemoteErrorLeavesOthersInFlight: a TError response for one id
// must not disturb the other requests sharing the connection.
func TestRemoteErrorLeavesOthersInFlight(t *testing.T) {
	addr := frameServer(t, func(ty Type, p []byte) (Type, []byte, bool) {
		if bytes.Equal(p, []byte("fail")) {
			return TError, ErrorMsg{Msg: "nope", Code: CodeNotFound}.Encode(), true
		}
		return ty + 1, p, true
	})
	d := &countingDialer{}
	ep := NewEndpoint(addr, d, fastRetry(0))
	defer ep.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				_, _, err := ep.Call(TLookupReq, []byte("fail"))
				var re *RemoteError
				if !errors.As(err, &re) || re.Code != CodeNotFound {
					errs <- fmt.Errorf("want typed remote error, got %v", err)
				}
				return
			}
			req := []byte(fmt.Sprintf("ok-%d", i))
			_, rp, err := ep.Call(TLookupReq, req)
			if err != nil {
				errs <- err
			} else if !bytes.Equal(rp, req) {
				errs <- fmt.Errorf("crossed response %q for request %q", rp, req)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dials, _ := d.stats(); dials != 1 {
		t.Fatalf("dials = %d, want 1 (remote errors never poison the conn)", dials)
	}
}

// TestUnknownResponseIDPoisons: a response whose id matches no waiting
// caller is a protocol violation (or stream corruption) and must kill
// the connection rather than be silently dropped.
func TestUnknownResponseIDPoisons(t *testing.T) {
	addr := muxServer(t, func(c net.Conn) {
		if _, _, _, err := ReadFrameID(c); err != nil {
			return
		}
		// Respond with an id nobody registered.
		WriteFrameID(c, TListResp, 0xDEADBEEF, nil)
		// Keep the conn open; the endpoint should close it.
		io.Copy(io.Discard, c)
	})
	cfg := fastRetry(-1)
	cfg.RTTimeout = 300 * time.Millisecond
	ep := NewEndpoint(addr, nil, cfg)
	defer ep.Close()
	_, _, err := ep.Call(TListReq, nil)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError from the unknown-id poison", err)
	}
}

// TestInflightAndQueueDepthTelemetry checks the new mux metrics: the
// in-flight gauge returns to zero after traffic, and the queue-depth
// histogram saw one observation per call.
func TestInflightAndQueueDepthTelemetry(t *testing.T) {
	addr := frameServer(t, func(ty Type, p []byte) (Type, []byte, bool) {
		return ty, p, true
	})
	reg := telemetry.NewRegistry()
	cfg := fastRetry(0)
	cfg.Metrics = reg
	ep := NewEndpoint(addr, nil, cfg)
	defer ep.Close()

	const calls = 10
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Call(TListReq, nil)
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Gauges["proto.inflight"]; got != 0 {
		t.Fatalf("proto.inflight = %v after drain, want 0", got)
	}
	if got := snap.Histograms["proto.queue.depth"].Count; got != calls {
		t.Fatalf("proto.queue.depth observations = %d, want %d", got, calls)
	}
	// Every frame left in some flush, and a flush carries at least one.
	if got := snap.Counters["proto.write.flushes"]; got < 1 || got > calls {
		t.Fatalf("proto.write.flushes = %d, want within [1, %d]", got, calls)
	}
}
