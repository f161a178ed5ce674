package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sliceReader hands its reader's bytes on in reads of 1 to limit bytes,
// whatever was asked for: a peer (or a kernel) that cuts frames anywhere.
type sliceReader struct {
	r     io.Reader
	rng   *rand.Rand
	limit int
}

func (s *sliceReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return s.r.Read(p[:min(len(p), 1+s.rng.Intn(s.limit))])
}

// confPayload is sender's seq-th frame body: its sequence number, then
// bytes that depend on both, so a frame torn or spliced with another
// sender's does not verify.
func confPayload(sender, seq, size int) []byte {
	b := binary.BigEndian.AppendUint32(make([]byte, 0, 4+size), uint32(seq))
	for i := 0; i < size; i++ {
		b = append(b, byte(sender*31+seq+i))
	}
	return b
}

// frameWriterConformance drives the write half through what it promises
// and returns the first promise broken, prefixed with its scenario.
func frameWriterConformance(plant string) error {
	for _, sc := range []struct {
		name string
		run  func(plant string) error
	}{
		{"concurrent senders", confConcurrentSenders},
		{"write error", confWriteError},
		{"stalled peer", confStalledPeer},
		{"bulk both ways", confBulkBothWays},
	} {
		if err := sc.run(plant); err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	return nil
}

// confConcurrentSenders: senders of random-sized frames — one in ten long
// enough to go out in place — over a pipe read in 1-to-7-byte slices;
// every frame arrives whole, each sender's in the order it sent them.
func confConcurrentSenders(plant string) error {
	const senders, frames = 8, 120
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var hook atomic.Int32
	w := NewFrameWriter(a, 10*time.Second, nil, func(error) { hook.Add(1) })
	w.plant = plant

	var wg sync.WaitGroup
	sendErr := make(chan error, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for seq := 0; seq < frames; seq++ {
				size := rng.Intn(600)
				if seq%10 == s%10 {
					size = inPlacePayload + rng.Intn(100)
				}
				if err := w.SendFrame(TDataFrame, uint32(s), confPayload(s, seq, size)); err != nil {
					sendErr <- fmt.Errorf("sender %d frame %d: %w", s, seq, err)
					return
				}
			}
		}()
	}

	// A pipe write returns once its bytes are read, so when the last sender
	// has, the reader holds every byte that was written: whatever it still
	// waits for then is not coming.
	sent := make(chan struct{})
	go func() {
		wg.Wait()
		b.SetReadDeadline(time.Now())
		close(sent)
	}()
	in := &sliceReader{r: b, rng: rand.New(rand.NewSource(99)), limit: 7}
	next := make([]int, senders)
	for got := 0; got < senders*frames; got++ {
		_, id, payload, err := ReadFrameID(in)
		if err != nil {
			return fmt.Errorf("after %d of %d frames: %w", got, senders*frames, err)
		}
		if int(id) >= senders || len(payload) < 4 {
			return fmt.Errorf("frame %d is nobody's: id %d, %d bytes", got, id, len(payload))
		}
		seq := int(binary.BigEndian.Uint32(payload))
		if !bytes.Equal(payload, confPayload(int(id), seq, len(payload)-4)) {
			return fmt.Errorf("sender %d's frame %d arrived torn", id, next[id])
		}
		if seq != next[id] {
			return fmt.Errorf("sender %d's frame %d arrived where its frame %d belongs", id, seq, next[id])
		}
		next[id]++
	}
	<-sent
	select {
	case err := <-sendErr:
		return err
	default:
	}
	if n := hook.Load(); n != 0 {
		return fmt.Errorf("the fault hook ran %d times on a healthy connection", n)
	}
	return nil
}

// confWriteError: once a write fails, that error is what every later send
// returns, and the hook has run exactly once.
func confWriteError(string) error {
	a, b := net.Pipe()
	defer a.Close()
	b.Close() // every write fails from here
	var hook atomic.Int32
	var hooked error
	w := NewFrameWriter(a, time.Second, nil, func(err error) {
		hooked = err
		hook.Add(1)
	})
	first := w.SendFrame(TListReq, 1, nil)
	if first == nil {
		return errors.New("a send into a closed pipe succeeded")
	}
	var wg sync.WaitGroup
	later := make([]error, 16)
	for i := range later {
		wg.Add(1)
		go func() {
			defer wg.Done()
			size := 10
			if i%4 == 0 {
				size = inPlacePayload
			}
			later[i] = w.SendFrame(TListReq, uint32(i), make([]byte, size))
		}()
	}
	wg.Wait()
	for i, err := range later {
		if err != first {
			return fmt.Errorf("later send %d returned %v, want the first fault %v", i, err, first)
		}
	}
	if n := hook.Load(); n != 1 || hooked != first {
		return fmt.Errorf("the fault hook ran %d times with %v, want once with %v", n, hooked, first)
	}
	return nil
}

// confStalledPeer: a peer that stops reading holds the flusher in its
// write only until the write deadline, which releases every sender with
// that fault — those of payloads in place too, whether their batch is the
// stuck one or queued behind it; the bytes copied into the backlog behind
// the stuck write never pass their bound.
func confStalledPeer(plant string) error {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var hook atomic.Int32
	w := NewFrameWriter(a, 100*time.Millisecond, nil, func(error) { hook.Add(1) })
	w.plant = plant

	var deepest atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			w.mu.Lock()
			n := int64(len(w.pend))
			w.mu.Unlock()
			if n > deepest.Load() {
				deepest.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	const copiedSenders, inPlaceSenders = 8, 3
	errs := make([]error, copiedSenders+inPlaceSenders)
	var wg sync.WaitGroup
	for s := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Copied frames all of one length: the backlog only ever holds
			// whole multiples of it, plus a header per payload in place,
			// none of which lands within a header's length of the bound, so
			// a bound that counts only headers overshoots it.
			frame := make([]byte, 1<<10)
			if s >= copiedSenders {
				frame = make([]byte, inPlacePayload)
			}
			for errs[s] == nil {
				errs[s] = w.SendFrame(TDataFrame, uint32(s), frame)
			}
		}()
	}
	released := make(chan struct{})
	go func() { wg.Wait(); close(released) }()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		return errors.New("senders still blocked 10 s after a 100 ms write deadline")
	}
	close(stop)
	<-sampled
	for s, err := range errs {
		if !errors.Is(err, os.ErrDeadlineExceeded) || err != errs[0] {
			return fmt.Errorf("sender %d was released by %v, want the write deadline %v", s, err, errs[0])
		}
	}
	if d := deepest.Load(); d == 0 || d > writeBacklog {
		return fmt.Errorf("backlog reached %d bytes, want within (0, %d]", d, writeBacklog)
	}
	if n := hook.Load(); n != 1 {
		return fmt.Errorf("the fault hook ran %d times, want once", n)
	}
	return nil
}

// sockEnd is one end of a connection whose sending side absorbs a write
// shorter than inPlacePayload at once, as a socket's buffer does, and
// holds a longer one until the peer has read it — or until the write
// deadline — as a socket does once that buffer is full. It counts the
// long writes made from an answering reader's goroutine.
type sockEnd struct {
	net.Conn     // a net.Pipe end, written by the pump alone
	q            chan sockWrite
	closed       chan struct{}
	bulkByReader atomic.Int32

	mu       sync.Mutex
	deadline time.Time
}

type sockWrite struct {
	b    []byte
	done chan struct{} // nil for an absorbed write
}

func newSockEnd(c net.Conn) *sockEnd {
	// q holds more writes than a scenario makes: an absorbed write never
	// blocks.
	s := &sockEnd{Conn: c, q: make(chan sockWrite, 1<<12), closed: make(chan struct{})}
	go func() {
		for {
			select {
			case wr := <-s.q:
				if _, err := c.Write(wr.b); err != nil {
					return
				}
				if wr.done != nil {
					close(wr.done)
				}
			case <-s.closed:
				return
			}
		}
	}()
	return s
}

func (s *sockEnd) Close() error {
	close(s.closed)
	return s.Conn.Close()
}

func (s *sockEnd) Write(b []byte) (int, error) {
	wr := sockWrite{b: bytes.Clone(b)}
	if len(b) >= inPlacePayload {
		if onAnsweringReader() {
			s.bulkByReader.Add(1)
		}
		wr.done = make(chan struct{})
	}
	select {
	case s.q <- wr:
	case <-s.closed:
		return 0, net.ErrClosed
	}
	if wr.done == nil {
		return len(b), nil
	}
	s.mu.Lock()
	timer := time.NewTimer(time.Until(s.deadline))
	s.mu.Unlock()
	defer timer.Stop()
	select {
	case <-wr.done:
		return len(b), nil
	case <-s.closed:
		return 0, net.ErrClosed
	case <-timer.C:
		return 0, os.ErrDeadlineExceeded
	}
}

func (s *sockEnd) SetWriteDeadline(t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deadline = t
	return nil
}

// onAnsweringReader reports whether answerFrames is on the calling
// goroutine's stack.
func onAnsweringReader() bool {
	buf := make([]byte, 16<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte(".answerFrames("))
}

// answerFrames is a demux loop: it reads in's frames until in fails and
// answers each on w with a small frame — a data frame with a credit, a
// credit, once it has woken the worker it names, with an end — but not an
// end.
func answerFrames(in io.Reader, w *FrameWriter, credits []chan struct{}) {
	for {
		t, id, _, err := ReadFrameID(in)
		if err != nil {
			return
		}
		switch t {
		case TDataFrame:
			err = w.SendFrame(TStreamCredit, id, StreamCredit{N: 1}.Encode())
		case TStreamCredit:
			select {
			case credits[id] <- struct{}{}:
			default: // its worker gave up
			}
			err = w.SendFrame(TStreamEnd, id, StreamEnd{}.Encode())
		}
		if err != nil {
			return
		}
	}
}

// confBulkBothWays: both ends of one connection send 64 KiB frames from
// workers while each end's demux loop answers what it reads with small
// frames on its own end's write half, as the demux loops send credits,
// errors and aborts. Each worker sends its next frame once its last is
// credited, like a stream sender with a window of one, so the loop's
// answer to a credit often finds the worker it just woke queueing a
// payload behind it. A demux loop that writes another sender's payload
// stops reading until the peer has read it, and if the peer's does the
// same both wait out the deadline; so a small frame's sender must never
// make such a write, and every frame must be sent and answered without a
// deadline expiring.
func confBulkBothWays(plant string) error {
	const workers, frames = 2, 40
	a, b := net.Pipe()
	ends := [2]*sockEnd{newSockEnd(a), newSockEnd(b)}
	var wg sync.WaitGroup
	sendErr := make(chan error, 2*workers)
	stop := make(chan struct{})
	for i, end := range ends {
		w := NewFrameWriter(end, time.Second, nil, func(error) {})
		w.plant = plant
		credits := make([]chan struct{}, workers)
		for k := range credits {
			credits[k] = make(chan struct{}, 1)
		}
		go answerFrames(NewReadHalf(end), w, credits)
		for k := range credits {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := make([]byte, 64<<10)
				for f := 0; f < frames; f++ {
					err := w.SendFrame(TDataFrame, uint32(k), payload)
					if err == nil {
						select {
						case <-credits[k]:
						case <-stop:
							return
						case <-time.After(10 * time.Second):
							err = errors.New("no answer in 10 s")
						}
					}
					if err != nil {
						sendErr <- fmt.Errorf("end %d worker %d frame %d: %w", i, k, f, err)
						return
					}
				}
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var err error
	select {
	case err = <-sendErr:
	case <-done:
	}
	close(stop)
	ends[0].Close()
	ends[1].Close()
	<-done
	if err != nil {
		return err
	}
	for i, end := range ends {
		if n := end.bulkByReader.Load(); n != 0 {
			return fmt.Errorf("end %d's demux loop wrote %d payloads of its workers", i, n)
		}
	}
	return nil
}

// TestFrameWriterConformance is what the connection's write half answers
// to, under both ends of the wire.
func TestFrameWriterConformance(t *testing.T) {
	if err := frameWriterConformance(""); err != nil {
		t.Fatal(err)
	}
}

// TestFrameWriterConformancePlantedBug shows the suite fires on each
// planted bug, in the scenario that guards against it.
func TestFrameWriterConformancePlantedBug(t *testing.T) {
	for _, c := range []struct{ plant, scenario string }{
		{plantDropQueued, "concurrent senders"},
		{plantEarlyRelease, "concurrent senders"},
		{plantCopiedUncounted, "stalled peer"},
		{plantSmallWritesBulk, "bulk both ways"},
	} {
		err := frameWriterConformance(c.plant)
		if err == nil || !strings.HasPrefix(err.Error(), c.scenario) {
			t.Errorf("planted %s: conformance reported %v, want a %s failure", c.plant, err, c.scenario)
		}
	}
}

// TestKillIsTheFaultOnce: Kill makes its error the connection's, fails
// later sends with it, and runs the hook only for the first fault.
func TestKillIsTheFaultOnce(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var hook atomic.Int32
	w := NewFrameWriter(a, time.Second, nil, func(error) { hook.Add(1) })
	boom := errors.New("boom")
	w.Kill(boom)
	w.Kill(errors.New("later"))
	if err := w.SendFrame(TListReq, 1, nil); err != boom {
		t.Fatalf("send after Kill returned %v, want %v", err, boom)
	}
	if n := hook.Load(); n != 1 {
		t.Fatalf("the fault hook ran %d times, want once", n)
	}
}

// TestNodeReadRespHeadMatchesEncode: the in-place encoding is the
// encoder's, byte for byte.
func TestNodeReadRespHeadMatchesEncode(t *testing.T) {
	for _, m := range []NodeReadResp{{}, {FromBuffer: true, Data: []byte("hello")}, {Data: make([]byte, 70000)}} {
		b := make([]byte, NodeReadRespHead+len(m.Data))
		copy(b[NodeReadRespHead:], m.Data)
		PutNodeReadRespHead(b, m.FromBuffer, len(m.Data))
		if !bytes.Equal(b, m.Encode()) {
			t.Errorf("in-place encoding of %v/%d bytes differs from Encode", m.FromBuffer, len(m.Data))
		}
	}
}

// FuzzFrameReader: a byte sequence cut at arbitrary boundaries decodes
// through the buffered read half exactly as it does whole through
// ReadFrameID — same frames, same terminal error. The buffer is the
// smallest bufio allows, so that payloads a fuzzer can afford are read
// past it, straight into their destination, as 16 KiB ones are in
// production.
func FuzzFrameReader(f *testing.F) {
	const fuzzBuffer = 16
	var seq []byte
	seq = appendFrameID(seq, TCreateReq, 7, CreateReq{"x", 1}.Encode())
	seq = appendFrameID(seq, TListReq, 8, nil)
	seq = appendFrameID(seq, TDataFrame, 9, bytes.Repeat([]byte{0xAB}, 3*fuzzBuffer))
	seq = appendFrameID(seq, TStreamEnd, 9, StreamEnd{}.Encode())
	f.Add(seq, int64(1))
	f.Add(seq, int64(35))
	f.Add(seq[:len(seq)-1], int64(7))               // cut inside the last payload
	f.Add(seq[:len(seq)-6], int64(3))               // cut inside the last header
	f.Add([]byte{0, 0, 0, 4, 1, 0, 0, 0}, int64(2)) // length below the header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0}, int64(5))
	f.Add([]byte{}, int64(0))

	type frame struct {
		t       Type
		id      uint32
		payload []byte
	}
	collect := func(next func() (Type, uint32, []byte, error)) (frames []frame, err error) {
		for {
			t, id, payload, err := next()
			if err != nil {
				return frames, err
			}
			frames = append(frames, frame{t, id, payload})
		}
	}
	f.Fuzz(func(t *testing.T, input []byte, seed int64) {
		// Both decoders allocate what a header declares before reading it:
		// leave out inputs that declare more than a fuzz worker should.
		for scan := bytes.NewReader(input); ; {
			_, _, n, err := ReadFrameHeader(scan)
			if err != nil {
				break
			}
			if n > 1<<20 {
				return
			}
			scan.Seek(int64(n), io.SeekCurrent)
		}
		whole := bytes.NewReader(input)
		want, wantErr := collect(func() (Type, uint32, []byte, error) { return ReadFrameID(whole) })

		rng := rand.New(rand.NewSource(seed))
		in := bufio.NewReaderSize(&sliceReader{r: bytes.NewReader(input), rng: rng, limit: 1 + int(uint64(seed)%(3*fuzzBuffer))}, fuzzBuffer)
		got, gotErr := collect(func() (Type, uint32, []byte, error) { return ReadFrameID(in) })
		if gotErr != wantErr {
			t.Fatalf("buffered reader stopped on %v, ReadFrameID on %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("buffered reader decoded %d frames, ReadFrameID %d", len(got), len(want))
		}
		for i := range want {
			if got[i].t != want[i].t || got[i].id != want[i].id || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("frame %d differs: type %d id %d (%d bytes), want type %d id %d (%d bytes)", i,
					got[i].t, got[i].id, len(got[i].payload), want[i].t, want[i].id, len(want[i].payload))
			}
		}
	})
}

// TestReadFrameHeaderFromReadHalfAllocatesNothing: a connection's read
// half decodes each header in place, so demuxing a frame costs no
// allocation however many frames a stream moves.
func TestReadFrameHeaderFromReadHalfAllocatesNothing(t *testing.T) {
	var frames []byte
	for i := 0; i < 200; i++ {
		frames = appendFrameID(frames, TStreamCredit, uint32(i), []byte{0, 0, 0, 1})
	}
	src := bytes.NewReader(frames)
	in := NewReadHalf(src)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(frames)
		in.Reset(src)
		for i := 0; i < 200; i++ {
			ty, id, n, err := ReadFrameHeader(in)
			if err != nil || ty != TStreamCredit || id != uint32(i) || n != 4 {
				t.Fatalf("frame %d: type %d id %d len %d err %v", i, ty, id, n, err)
			}
			in.Discard(n)
		}
	})
	if allocs != 0 {
		t.Errorf("200 headers from a read half: %.0f allocations, want 0", allocs)
	}
}
