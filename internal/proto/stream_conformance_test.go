package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipeEnd is the least a StreamConn can be: one end of a net.Pipe that
// carries one stream, frames written whole under a mutex, and a demux
// loop feeding the stream's Deliver.
type pipeEnd struct {
	c        net.Conn
	st       *Stream
	wmu      sync.Mutex
	accepted atomic.Int64 // frames Deliver took

	kmu    sync.Mutex
	killed error
}

func (p *pipeEnd) SendFrame(t Type, id uint32, payload []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return WriteFrameID(p.c, t, id, payload)
}

func (p *pipeEnd) Kill(err error) {
	p.kmu.Lock()
	if p.killed == nil {
		p.killed = err
	}
	p.kmu.Unlock()
	p.c.Close()
}

func (p *pipeEnd) killedBy() error {
	p.kmu.Lock()
	defer p.kmu.Unlock()
	return p.killed
}

func (p *pipeEnd) demux() {
	for {
		t, _, n, err := ReadFrameHeader(p.c)
		if err == nil {
			if err = p.st.Deliver(t, n, p.c); err != nil {
				p.Kill(err)
			}
		}
		if err != nil {
			p.st.Fail(err)
			return
		}
		p.accepted.Add(1)
	}
}

// streamPair is one stream with a Stream at each end of a net.Pipe, opened
// the way the real sides open one: the accepting end answers the open, the
// dialing end adopts the answer. Either end can then send to the other.
type streamPair struct {
	dial, acc       *Stream
	dialEnd, accEnd *pipeEnd
	baseline        int64
	wg              sync.WaitGroup
}

const (
	confWindow = 4
	confChunk  = 1000
)

func newStreamPair(size int64, stall time.Duration) (*streamPair, error) {
	a, b := net.Pipe()
	p := &streamPair{dialEnd: &pipeEnd{c: a}, accEnd: &pipeEnd{c: b}, baseline: ChunksInUse()}
	p.dial = NewStream(1, p.dialEnd, stall, confWindow)
	p.dial.limit = confChunk
	p.acc = NewStream(1, p.accEnd, stall, confWindow)
	p.dialEnd.st, p.accEnd.st = p.dial, p.acc
	p.wg.Add(2)
	for _, e := range []*pipeEnd{p.dialEnd, p.accEnd} {
		go func() {
			defer p.wg.Done()
			e.demux()
		}()
	}
	if err := p.acc.Accept(StreamOpenResp{Size: size, ChunkSize: confChunk}); err != nil {
		return nil, err
	}
	if _, err := p.dial.awaitOpen(); err != nil {
		return nil, err
	}
	return p, nil
}

// ends returns the pair as sender and receiver, and the connection under
// each: dial-to-accept is the shape of a write stream, the reverse a read
// stream.
func (p *streamPair) ends(reverse bool) (snd, rcv *Stream, sndEnd, rcvEnd *pipeEnd) {
	if reverse {
		return p.acc, p.dial, p.accEnd, p.dialEnd
	}
	return p.dial, p.acc, p.dialEnd, p.accEnd
}

// close releases both ends, stops the demux loops, and reports a chunk
// buffer that did not come back.
func (p *streamPair) close() error {
	p.dial.Release()
	p.acc.Release()
	p.dialEnd.c.Close()
	p.accEnd.c.Close()
	p.wg.Wait()
	if n := ChunksInUse(); n != p.baseline {
		return fmt.Errorf("%d chunk buffers out of the pool after the stream, %d before", n, p.baseline)
	}
	return nil
}

func confChunkOf(i int) []byte { return bytes.Repeat([]byte{byte(i)}, confChunk) }

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// streamConformance drives the one Stream type against itself — send half
// to receive half, in both orientations — through every way a stream can
// end, and returns the first assertion that does not hold, prefixed with
// its scenario. plant is set on the receiving end.
func streamConformance(plant string) error {
	scenarios := []struct {
		name string
		run  func(reverse bool, plant string) error
	}{
		{"clean end", confCleanEnd},
		{"size mismatch", confSizeMismatch},
		{"abort by receiver", confAbortByReceiver},
		{"abort by sender", confAbortBySender},
		{"stall", confStall},
		{"credit starvation", confStarvation},
		{"flood", confFlood},
	}
	for _, sc := range scenarios {
		for _, reverse := range []bool{false, true} {
			if err := sc.run(reverse, plant); err != nil {
				return fmt.Errorf("%s (reverse=%v): %w", sc.name, reverse, err)
			}
		}
	}
	return nil
}

// confCleanEnd moves ten windows of chunks and ends: every byte arrives,
// which it only can if credits came back, and the receiver sees the end
// as clean.
func confCleanEnd(reverse bool, plant string) (err error) {
	const chunks = 10 * confWindow
	p, err := newStreamPair(chunks*confChunk, time.Second)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, p.close()) }()
	snd, rcv, _, _ := p.ends(reverse)
	rcv.plant = plant
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < chunks; i++ {
			if err := snd.SendChunk(confChunkOf(i)); err != nil {
				sent <- fmt.Errorf("sending chunk %d: %w", i, err)
				return
			}
		}
		sent <- snd.End(false)
	}()
	for i := 0; ; i++ {
		b, err := rcv.RecvChunk()
		if err != nil {
			return fmt.Errorf("receiving chunk %d: %w", i, err)
		}
		if b == nil {
			if i != chunks {
				return fmt.Errorf("clean end after %d of %d chunks", i, chunks)
			}
			break
		}
		if !bytes.Equal(b, confChunkOf(i)) {
			return fmt.Errorf("chunk %d arrived with the wrong bytes", i)
		}
	}
	return <-sent
}

// confSizeMismatch ends a stream one chunk short of its declared size,
// then runs one a chunk past it: both are errors at the receiver, the
// first an io.ErrUnexpectedEOF.
func confSizeMismatch(reverse bool, plant string) (err error) {
	const declared = 3
	for _, send := range []int{declared - 1, declared + 1} {
		p, err := newStreamPair(declared*confChunk, time.Second)
		if err != nil {
			return err
		}
		snd, rcv, _, _ := p.ends(reverse)
		rcv.plant = plant
		for i := 0; i < send; i++ {
			if err := snd.SendChunk(confChunkOf(i)); err != nil {
				return errors.Join(err, p.close())
			}
		}
		if err := snd.End(false); err != nil {
			return errors.Join(err, p.close())
		}
		var rerr error
		got := 0
		for ; rerr == nil; got++ {
			var b []byte
			if b, rerr = rcv.RecvChunk(); b == nil {
				break
			}
		}
		switch {
		case rerr == nil:
			err = fmt.Errorf("%d chunks of a declared %d ended cleanly", send, declared)
		case got > declared:
			err = fmt.Errorf("%d chunks handed out of a declared %d", got, declared)
		case send < declared && !errors.Is(rerr, io.ErrUnexpectedEOF):
			err = fmt.Errorf("short end reported as %v, want io.ErrUnexpectedEOF", rerr)
		}
		if err = errors.Join(err, p.close()); err != nil {
			return err
		}
	}
	return nil
}

// wantRemote checks that err is the peer's abort with its code and text.
func wantRemote(err error, code Code, msg string) error {
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != code || re.Msg != msg {
		return fmt.Errorf("err = %v, want *RemoteError{%v, %q}", err, code, msg)
	}
	return nil
}

// confAbortByReceiver: the receiver gives up after two chunks; the sender
// learns why, typed, once its window is spent, and the connection lives.
func confAbortByReceiver(reverse bool, _ string) (err error) {
	p, err := newStreamPair(100*confChunk, time.Second)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, p.close()) }()
	snd, rcv, sndEnd, rcvEnd := p.ends(reverse)
	for i := 0; i < 2; i++ {
		if err := snd.SendChunk(confChunkOf(i)); err != nil {
			return err
		}
		if _, err := rcv.RecvChunk(); err != nil {
			return err
		}
	}
	rcv.Abort(ErrorMsg{Code: CodeUnavailable, Msg: "buffer area full"}.Encode())
	var serr error
	sent := 0
	for ; serr == nil && sent <= confWindow; sent++ {
		serr = snd.SendChunk(confChunkOf(sent))
	}
	if err := wantRemote(serr, CodeUnavailable, "buffer area full"); err != nil {
		return fmt.Errorf("after %d more chunks: %w", sent, err)
	}
	if k := errors.Join(sndEnd.killedBy(), rcvEnd.killedBy()); k != nil {
		return fmt.Errorf("a stream-scoped abort killed the connection: %w", k)
	}
	return nil
}

// confAbortBySender: the sender gives up after two chunks; the receiver
// gets both, then the reason, typed, and the connection lives.
func confAbortBySender(reverse bool, _ string) (err error) {
	p, err := newStreamPair(100*confChunk, time.Second)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, p.close()) }()
	snd, rcv, sndEnd, rcvEnd := p.ends(reverse)
	for i := 0; i < 2; i++ {
		if err := snd.SendChunk(confChunkOf(i)); err != nil {
			return err
		}
	}
	snd.Abort(ErrorMsg{Code: CodeNotFound, Msg: "disk ate the file"}.Encode())
	for i := 0; i < 2; i++ {
		if b, err := rcv.RecvChunk(); err != nil || !bytes.Equal(b, confChunkOf(i)) {
			return fmt.Errorf("chunk %d sent before the abort: err = %v", i, err)
		}
	}
	_, rerr := rcv.RecvChunk()
	if err := wantRemote(rerr, CodeNotFound, "disk ate the file"); err != nil {
		return err
	}
	if k := errors.Join(sndEnd.killedBy(), rcvEnd.killedBy()); k != nil {
		return fmt.Errorf("a stream-scoped abort killed the connection: %w", k)
	}
	return nil
}

// confStall: a sender that goes silent costs the receiver the stall bound,
// not forever, and the connection with it.
func confStall(reverse bool, _ string) (err error) {
	p, err := newStreamPair(100*confChunk, 50*time.Millisecond)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, p.close()) }()
	_, rcv, _, rcvEnd := p.ends(reverse)
	if _, err := rcv.RecvChunk(); !isTimeout(err) {
		return fmt.Errorf("RecvChunk from a silent sender: %v, want a timeout", err)
	}
	if rcvEnd.killedBy() == nil {
		return errors.New("the stalled stream's connection was left alive")
	}
	return nil
}

// confStarvation: a receiver that consumes nothing returns no credit, so
// the sender gets exactly the window out and then times out typed.
func confStarvation(reverse bool, _ string) (err error) {
	p, err := newStreamPair(100*confChunk, 50*time.Millisecond)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, p.close()) }()
	snd, _, sndEnd, _ := p.ends(reverse)
	var serr error
	sent := 0
	for ; sent < 3*confWindow; sent++ {
		if serr = snd.SendChunk(confChunkOf(sent)); serr != nil {
			break
		}
	}
	if sent != confWindow || !isTimeout(serr) {
		return fmt.Errorf("%d chunks sent into a window of %d, then %v; want the window, then a timeout", sent, confWindow, serr)
	}
	if sndEnd.killedBy() == nil {
		return errors.New("the starved stream's connection was left alive")
	}
	return nil
}

// confFlood: a sender that ignores the window is cut off by the receiving
// end after window + slack frames, and one that ignores the chunk size
// before its first oversized payload is read.
func confFlood(reverse bool, _ string) (err error) {
	for _, tc := range []struct {
		size, accepted int
		why            string
	}{
		{confChunk, confWindow + streamRecvSlack, "overrun"},
		{confChunk + 1, 0, "exceeds"},
	} {
		p, err := newStreamPair(1000*confChunk, time.Second)
		if err != nil {
			return err
		}
		_, _, sndEnd, rcvEnd := p.ends(reverse)
		start := rcvEnd.accepted.Load() // the open response, in one orientation
		frame := make([]byte, tc.size)
		var serr error
		for i := 0; i < 100 && serr == nil; i++ {
			serr = sndEnd.SendFrame(TDataFrame, 1, frame)
		}
		if serr != nil {
			p.wg.Wait() // the receiving end killed the pipe, ending both loops
		}
		k := rcvEnd.killedBy()
		switch got := int(rcvEnd.accepted.Load() - start); {
		case serr == nil:
			err = errors.New("100 frames sent without credit and the connection still stands")
		case k == nil || !strings.Contains(k.Error(), tc.why):
			err = fmt.Errorf("connection killed by %v, want a %q violation", k, tc.why)
		case got != tc.accepted:
			err = fmt.Errorf("%d frames of %d bytes buffered before the cut, want %d", got, tc.size, tc.accepted)
		}
		if err = errors.Join(err, p.close()); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamConformance is the one suite both sides of the data plane
// answer to, now that they run the same code.
func TestStreamConformance(t *testing.T) {
	if err := streamConformance(""); err != nil {
		t.Fatal(err)
	}
}

// TestStreamConformancePlantedBug shows the suite's assertions fire: a
// receive half that never replenishes starves the clean transfer, and one
// that skips the size check passes a short stream off as whole.
func TestStreamConformancePlantedBug(t *testing.T) {
	for plant, scenario := range map[string]string{
		plantNoReplenish: "clean end",
		plantNoSizeCheck: "size mismatch",
	} {
		err := streamConformance(plant)
		if err == nil || !strings.HasPrefix(err.Error(), scenario) {
			t.Errorf("planted %s: conformance reported %v, want a %q failure", plant, err, scenario)
		}
	}
}

// TestTerminalFrameIntoFullQueueFailsStream pins the order of the dialing
// side's demux: a stream id is retired on the peer's terminal frame only
// once the frame is delivered. Retired first, a terminal frame that
// overran a full queue would poison the connection with the stream
// already out of the table — and its owner never told.
func TestTerminalFrameIntoFullQueueFailsStream(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	defer serverEnd.Close()
	m := newMuxConn(clientEnd, newEpMetrics(nil), time.Minute)
	go io.Copy(io.Discard, serverEnd) // the preface
	st, err := m.registerStream(confWindow, confChunk, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < confWindow+streamRecvSlack; i++ {
		if err := WriteFrameID(serverEnd, TDataFrame, st.id, confChunkOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = WriteFrameID(serverEnd, TStreamEnd, st.id, StreamEnd{}.Encode()) // cut off mid-frame
	select {
	case <-st.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the stream's owner was never told its connection died")
	}
	st.Release()
}
