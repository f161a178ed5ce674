package fs

import (
	"errors"
	"net"
	"testing"
	"time"
)

// flakyListener serves a scripted sequence of Accept outcomes: transient
// errors (nil conn, non-closed error), connections, and finally
// net.ErrClosed.
type flakyListener struct {
	script []error // nil entry = hand out a connection
	pos    int
}

var errTransient = errors.New("accept: too many open files")

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.pos >= len(l.script) {
		return nil, net.ErrClosed
	}
	err := l.script[l.pos]
	l.pos++
	if err != nil {
		return nil, err
	}
	c, s := net.Pipe()
	s.Close()
	return c, nil
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptConnsSurvivesTransientErrors: an EMFILE-style burst must not
// kill the accept loop — connections after the burst are still served,
// and the loop ends only on the listener's closure. The original loop
// returned on the first error, leaving a daemon alive but deaf.
func TestAcceptConnsSurvivesTransientErrors(t *testing.T) {
	ln := &flakyListener{script: []error{
		nil, errTransient, errTransient, nil, errTransient, nil,
	}}
	var got int
	var logs int
	done := make(chan struct{})
	go func() {
		defer close(done)
		acceptConns(ln,
			func(string, ...any) { logs++ },
			func(c net.Conn) { got++; c.Close() })
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("acceptConns did not exit on listener closure")
	}
	if got != 3 {
		t.Fatalf("served %d connections through the error burst, want 3", got)
	}
	if logs != 3 {
		t.Fatalf("logged %d transient errors, want 3", logs)
	}
}
