// Transport: the connection-management layer under every EEVFS round
// trip. The paper's process flow keeps one persistent TCP connection per
// peer (server -> each storage node, client -> server and nodes); an
// Endpoint owns such a connection and gives every round trip a connect
// deadline, an overall round-trip deadline, and bounded retries with
// jittered exponential backoff. The connection is multiplexed: any number
// of callers may have round trips in flight, correlated by request id.
// Transport failures poison the connection, failing every outstanding
// request, and surface as *TransportError; remote application failures
// surface as *RemoteError, never retry, and leave the connection (and its
// other in-flight requests) untouched.
package proto

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"eevfs/internal/telemetry"
)

// Dialer opens transport connections. The production implementation is
// NetDialer; chaos tests inject a *faultnet.Network.
type Dialer interface {
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// NetDialer is the plain-TCP Dialer.
type NetDialer struct{}

// Dial implements Dialer.
func (NetDialer) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// Transport timeout/retry defaults.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultRTTimeout   = 10 * time.Second
	DefaultRetries     = 2
	DefaultRetryBase   = 25 * time.Millisecond
	DefaultRetryMax    = 1 * time.Second
)

// TransportConfig bounds and retries every round trip on an Endpoint.
// Zero fields take the Default* constants.
type TransportConfig struct {
	// DialTimeout bounds establishing the TCP connection.
	DialTimeout time.Duration
	// RTTimeout bounds one whole round trip (request write + response
	// read) once connected.
	RTTimeout time.Duration
	// Retries is how many additional attempts follow a failed one.
	// Negative disables retrying (a single attempt).
	Retries int
	// RetryBase is the first backoff delay; it doubles per attempt.
	RetryBase time.Duration
	// RetryMax caps the backoff delay.
	RetryMax time.Duration
	// Seed seeds the backoff jitter (0 = a fixed default), keeping retry
	// schedules reproducible in tests.
	Seed int64
	// Metrics, when set, receives per-round-trip telemetry: the
	// proto.rt.seconds latency histogram plus calls / retries / timeouts
	// / error-class counters, aggregated across every endpoint sharing
	// the registry. Nil disables instrumentation at no cost.
	Metrics *telemetry.Registry
}

func (c TransportConfig) withDefaults() TransportConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.RTTimeout <= 0 {
		c.RTTimeout = DefaultRTTimeout
	}
	if c.Retries == 0 {
		c.Retries = DefaultRetries
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.RetryMax <= 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TransportError reports a round trip that failed below the application
// layer: dial failure, timeout, reset, or short frame. The last attempt's
// underlying error is wrapped.
type TransportError struct {
	Addr     string
	Attempts int
	Err      error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("proto: transport to %s failed after %d attempt(s): %v",
		e.Addr, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// Timeout reports whether the final attempt died on a deadline.
func (e *TransportError) Timeout() bool {
	var ne net.Error
	return errors.As(e.Err, &ne) && ne.Timeout()
}

// epMetrics holds an endpoint's pre-resolved metric handles, so the
// round-trip hot path never touches the registry's lock. All fields are
// nil (no-op) when TransportConfig.Metrics is unset.
type epMetrics struct {
	reg         *telemetry.Registry
	calls       *telemetry.Counter
	retries     *telemetry.Counter
	timeouts    *telemetry.Counter
	transportEs *telemetry.Counter
	remoteEs    *telemetry.Counter
	latency     *telemetry.Histogram
	inflight    *telemetry.Gauge

	streamOpens  *telemetry.Counter
	streamBytes  *telemetry.Counter
	streamChunks *telemetry.Counter
}

func newEpMetrics(reg *telemetry.Registry) epMetrics {
	return epMetrics{
		reg:         reg,
		calls:       reg.Counter("proto.rt.calls"),
		retries:     reg.Counter("proto.rt.retries"),
		timeouts:    reg.Counter("proto.rt.timeouts"),
		transportEs: reg.Counter("proto.rt.errors.transport"),
		remoteEs:    reg.Counter("proto.rt.errors.remote"),
		latency:     reg.Histogram("proto.rt.seconds", nil),
		inflight:    reg.Gauge("proto.inflight"),

		streamOpens:  reg.Counter("proto.stream.opens"),
		streamBytes:  reg.Counter("proto.stream.bytes"),
		streamChunks: reg.Counter("proto.stream.chunks"),
	}
}

// Endpoint is one peer's persistent multiplexed connection plus the
// retry policy around it. Any number of goroutines may Call concurrently;
// their round trips are pipelined on the single connection and correlated
// back by request id. The zero value is not usable; call NewEndpoint.
type Endpoint struct {
	addr string
	dial Dialer
	cfg  TransportConfig
	met  epMetrics

	mu     sync.Mutex
	cur    *muxConn // current connection generation (nil before first use)
	rng    *rand.Rand
	closed bool
}

// NewEndpoint prepares (without dialing) an endpoint for addr. A nil
// dialer means plain TCP.
func NewEndpoint(addr string, d Dialer, cfg TransportConfig) *Endpoint {
	if d == nil {
		d = NetDialer{}
	}
	cfg = cfg.withDefaults()
	return &Endpoint{
		addr: addr,
		dial: d,
		cfg:  cfg,
		met:  newEpMetrics(cfg.Metrics),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Addr returns the peer address.
func (e *Endpoint) Addr() string { return e.addr }

// Connect dials eagerly (Call otherwise dials lazily on first use).
func (e *Endpoint) Connect() error {
	_, err := e.conn()
	return err
}

// Close discards the connection — outstanding round trips fail with a
// typed transport error — and makes every later Call return
// net.ErrClosed (wrapped).
func (e *Endpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	m := e.cur
	e.cur = nil
	e.mu.Unlock()
	if m != nil {
		m.poison(net.ErrClosed)
	}
	return nil
}

// conn returns the live connection generation, dialing a fresh one when
// there is none (first use, or the previous generation was poisoned).
func (e *Endpoint) conn() (*muxConn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, net.ErrClosed
	}
	if e.cur != nil {
		select {
		case <-e.cur.done: // poisoned: replaced below
		default:
			return e.cur, nil
		}
	}
	c, err := e.dial.Dial(e.addr, e.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	e.cur = newMuxConn(c, e.met, e.cfg.RTTimeout)
	return e.cur, nil
}

// backoff returns the jittered delay before retry attempt n >= 1:
// RetryBase doubled per attempt, capped at RetryMax, jittered to
// [50%, 100%] so synchronized retry storms decorrelate.
func (e *Endpoint) backoff(attempt int) time.Duration {
	d := e.cfg.RetryBase
	for i := 1; i < attempt && d < e.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > e.cfg.RetryMax {
		d = e.cfg.RetryMax
	}
	e.mu.Lock()
	j := time.Duration(e.rng.Int63n(int64(d/2) + 1))
	e.mu.Unlock()
	return d/2 + j
}

// attempt runs do on the live connection generation, with the configured
// retries. Success and a remote application error (*RemoteError: the
// peer's answer) are final and leave the connection cached; anything else
// is a transport fault, which poisons the generation (failing every other
// in-flight request on it) before the next attempt dials a fresh one — a
// dead stream must never leak into a later round trip.
func (e *Endpoint) attempt(do func(m *muxConn) error) error {
	e.met.calls.Inc()
	var last error
	tries := 0
	for tries <= e.cfg.Retries {
		if tries > 0 {
			e.met.retries.Inc()
			time.Sleep(e.backoff(tries))
		}
		tries++
		m, err := e.conn()
		if err != nil {
			if last = err; errors.Is(err, net.ErrClosed) {
				break // the endpoint itself was closed: nothing to retry
			}
			continue
		}
		if err = do(m); err == nil {
			return nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			// Classified by its wire code (cold path: a lookup is fine).
			e.met.remoteEs.Inc()
			e.met.reg.Counter("proto.rt.errors.remote." + re.Code.String()).Inc()
			return err
		}
		m.poison(err)
		last = err
	}
	terr := &TransportError{Addr: e.addr, Attempts: tries, Err: last}
	e.met.transportEs.Inc()
	if terr.Timeout() {
		e.met.timeouts.Inc()
	}
	return terr
}

// Call performs one round trip with the configured deadlines and retries
// (see attempt for what is retried).
func (e *Endpoint) Call(t Type, payload []byte) (rt Type, rp []byte, err error) {
	start := time.Now()
	err = e.attempt(func(m *muxConn) (err error) {
		rt, rp, err = m.roundTrip(t, payload, e.cfg.RTTimeout)
		return err
	})
	var re *RemoteError
	if err == nil || errors.As(err, &re) {
		// The peer answered: the round trip succeeded and counts as latency.
		e.met.latency.Observe(time.Since(start).Seconds())
	}
	return rt, rp, err
}

// CallCtx is Call with a trace context attached to the request frame.
// The context is encoded once up front — retries resend the same traced
// frame — and a zero context degrades to a plain Call, so call sites
// pass whatever span context they hold without branching.
func (e *Endpoint) CallCtx(t Type, payload []byte, sc telemetry.SpanContext) (Type, []byte, error) {
	t, payload = AttachContext(t, payload, sc)
	return e.Call(t, payload)
}
