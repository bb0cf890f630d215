// Package wire is the calling side of arbd's binary protocol
// (internal/arbd/codec, spec in docs/WIRE.md): the one connection type
// every binary caller dials through — the public client's transport
// and a cluster node's link to each peer — and the one owned message
// type frames decode into.
//
// Msg is a decoded frame whose fields own their bytes, so it can
// outlive the codec.Reader buffer it came from: the server queues Msg
// responses, routers forward Msg requests, and Conn answers calls with
// Msg replies.
//
// Conn is a lazily dialed TCP connection carrying any number of
// in-flight calls, correlated by ID. Its errors say how far a failed
// call got — never sent, sent and then torn, or abandoned by its
// context — because only the first is safe to retry: once a frame is
// on the wire the daemon may have acted on it.
//
// The package lives outside codec on purpose: codec is held to
// arblint's allocfree and determinism rules, and a connection with
// goroutines, maps and owned strings is neither.
package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"busarb/internal/arbd/codec"
)

// Msg is one protocol message with owned fields. Which fields matter
// depends on Type, exactly as for codec.Frame.
type Msg struct {
	Type codec.Type
	// Corr is the correlation ID the message travels under.
	Corr uint64
	// Routed reports FlagRouted; Route is the route field it carries
	// (docs/WIRE.md "Routed frames").
	Routed bool
	Route  string
	// Resource names the arbitrated resource (Acquire, Grant, Release,
	// Released).
	Resource string
	// Agent is the arbitrating identity (Acquire, Grant).
	Agent int
	// Timeout bounds an acquire's queue wait; 0 waits indefinitely.
	Timeout time.Duration
	// TTL is the requested (Acquire) or granted (Grant) lease lifetime.
	TTL time.Duration
	// Token identifies a lease (Grant, Release).
	Token string
	// Code and Text are an Error's status and message.
	Code int
	Text string
}

// FromFrame copies f into an owned Msg. The agent decodes as a signed
// 32-bit value, so a negative identity stays negative and the daemon
// can reject it instead of seeing a huge positive one.
func FromFrame(f *codec.Frame) Msg {
	return Msg{
		Type:     f.Type,
		Corr:     f.Corr,
		Routed:   f.Flags&codec.FlagRouted != 0,
		Route:    string(f.Route),
		Resource: string(f.Resource),
		Agent:    int(int32(f.Agent)),
		Timeout:  time.Duration(f.TimeoutNS),
		TTL:      time.Duration(f.TTLNS),
		Token:    string(f.Token),
		Code:     int(f.Code),
		Text:     string(f.Msg),
	}
}

// Frame returns m as a frame ready to encode; its byte fields are
// copies of m's strings.
func (m *Msg) Frame() codec.Frame {
	f := codec.Frame{
		Type:      m.Type,
		Corr:      m.Corr,
		Agent:     uint32(m.Agent),
		TimeoutNS: int64(m.Timeout),
		TTLNS:     int64(m.TTL),
		Code:      uint16(m.Code),
		Resource:  []byte(m.Resource),
		Token:     []byte(m.Token),
		Msg:       []byte(m.Text),
	}
	if m.Routed {
		f.Flags = codec.FlagRouted
		f.Route = []byte(m.Route)
	}
	return f
}

// ErrorMsg builds an Error message (the daemon's 400/404/408/503
// taxonomy).
func ErrorMsg(code int, text string) Msg {
	return Msg{Type: codec.TError, Code: code, Text: text}
}

// The classes of Call failure. Every error Call returns for a frame
// that encodes matches exactly one of ErrNotSent, ErrTorn and
// ErrAbandoned under errors.Is; failures caused by Close also match
// ErrClosed.
var (
	// ErrNotSent: the frame never reached the wire (dial refused,
	// write failed, connection closed), so the peer cannot have acted
	// on it and the call may be retried.
	ErrNotSent = errors.New("wire: not sent")
	// ErrTorn: the frame was written, then the connection ended before
	// its reply arrived. The peer may have acted on it.
	ErrTorn = errors.New("wire: connection torn")
	// ErrAbandoned: the call's context ended first. A late reply is
	// dropped.
	ErrAbandoned = errors.New("wire: abandoned")
	// ErrClosed: Close was called on the Conn.
	ErrClosed = errors.New("wire: closed")
)

// callError is a classified Call failure: its message is the cause's,
// and errors.Is matches both the class and the cause.
type callError struct {
	class, cause error
}

func (e *callError) Error() string   { return e.cause.Error() }
func (e *callError) Unwrap() []error { return []error{e.class, e.cause} }

// reply resolves one pending call.
type reply struct {
	m   Msg
	err error
}

// Conn is one binary-protocol connection to addr, dialed on first use
// and redialed on the next call after a tear. It is safe for
// concurrent use.
type Conn struct {
	addr        string
	dialTimeout time.Duration

	mu      sync.Mutex
	nc      net.Conn              // guarded by mu; nil between teardown and redial
	w       *codec.Writer         // guarded by mu; writes serialized under it
	corr    uint64                // guarded by mu
	pending map[uint64]chan reply // guarded by mu
	closed  bool                  // guarded by mu

	wg sync.WaitGroup // one per live readLoop
}

// NewConn returns an undialed connection to addr (host:port); each
// dial attempt is bounded by dialTimeout.
func NewConn(addr string, dialTimeout time.Duration) *Conn {
	return &Conn{addr: addr, dialTimeout: dialTimeout, pending: make(map[uint64]chan reply)}
}

// Dial connects now if the connection is down, so callers that want
// an unreachable peer reported up front need not wait for a call. Its
// errors match ErrNotSent.
func (c *Conn) Dial() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dialLocked()
}

// Connected reports whether the connection is up: dialed and not torn.
// It exists for tests, which wait on a tear before their next call;
// callers need not check it, since Call redials a torn connection.
func (c *Conn) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nc != nil
}

// dialLocked dials if the connection is down and starts its reader.
// Callers hold c.mu.
func (c *Conn) dialLocked() error {
	if c.closed {
		return &callError{ErrNotSent, ErrClosed}
	}
	if c.nc != nil {
		return nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return &callError{ErrNotSent, err}
	}
	c.nc = nc
	c.w = codec.NewWriter(nc)
	c.wg.Add(1)
	go c.readLoop(nc)
	return nil
}

// Call writes f under a fresh correlation ID (overwriting f.Corr) and
// waits for the correlated reply, ctx's end, or the connection's. A
// frame that does not encode (an oversized field) fails with the
// codec's error, unclassified: nothing was sent, but no retry can
// help.
func (c *Conn) Call(ctx context.Context, f *codec.Frame) (Msg, error) {
	c.mu.Lock()
	if err := c.dialLocked(); err != nil {
		c.mu.Unlock()
		return Msg{}, err
	}
	c.corr++
	corr := c.corr
	f.Corr = corr
	ch := make(chan reply, 1)
	c.pending[corr] = ch
	err := c.w.WriteFrame(f)
	c.mu.Unlock()
	if err != nil {
		// A failed write leaves the teardown to the reader; this caller
		// learns the write error either way.
		c.forget(corr)
		if errors.Is(err, codec.ErrTooLong) || errors.Is(err, codec.ErrType) {
			return Msg{}, fmt.Errorf("encode %v frame: %w", f.Type, err)
		}
		return Msg{}, &callError{ErrNotSent, fmt.Errorf("write to %s: %w", c.addr, err)}
	}
	select {
	case r := <-ch:
		return r.m, r.err
	case <-ctx.Done():
		// Nobody is left to read this reply; the peer's eventual answer
		// hits an unmatched ID and is dropped, and a granted lease lapses
		// at its TTL.
		c.forget(corr)
		return Msg{}, &callError{ErrAbandoned, ctx.Err()}
	}
}

// forget abandons a pending correlation ID.
func (c *Conn) forget(corr uint64) {
	c.mu.Lock()
	delete(c.pending, corr)
	c.mu.Unlock()
}

// readLoop owns nc's read side: it resolves calls until the
// connection ends, then fails whatever is still in flight. Close ends
// it by closing nc and joins it through c.wg.
func (c *Conn) readLoop(nc net.Conn) {
	defer c.wg.Done()
	r := codec.NewReader(nc)
	var f codec.Frame
	for {
		if err := r.Next(&f); err != nil {
			c.teardown(nc, fmt.Errorf("connection to %s lost: %w", c.addr, err))
			return
		}
		switch f.Type {
		case codec.TGrant, codec.TReleased, codec.TError:
		default:
			// A frame type a caller never receives: protocol skew. Drop
			// the connection rather than guess.
			c.teardown(nc, fmt.Errorf("unexpected %v frame from %s", f.Type, c.addr))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.Corr]
		delete(c.pending, f.Corr)
		c.mu.Unlock()
		if ok {
			ch <- reply{m: FromFrame(&f)} // one slot, one sender: never blocks
		}
	}
}

// teardown retires a torn connection and fails its in-flight calls.
func (c *Conn) teardown(nc net.Conn, cause error) {
	nc.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nc {
		c.nc = nil
		c.w = nil
	}
	if c.closed {
		cause = fmt.Errorf("%w (%w)", ErrClosed, cause)
	}
	for corr, ch := range c.pending {
		delete(c.pending, corr)
		ch <- reply{err: &callError{ErrTorn, cause}}
	}
}

// Close tears the connection down and waits for its reader to exit.
// Calls in flight fail with ErrTorn and ErrClosed; later calls with
// ErrNotSent and ErrClosed. Close is idempotent.
func (c *Conn) Close() {
	c.mu.Lock()
	c.closed = true
	nc := c.nc
	c.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
	c.wg.Wait()
}
