package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"busarb/internal/arbd/codec"
)

// peer is a scripted far end: every accepted connection is handed to
// serve, which owns it until it returns (the connection is then
// closed). At the test's end the listener closes and every serve
// goroutine is waited for, so serve must return once the client side
// of its connection is gone.
func peer(t *testing.T, serve func(conn net.Conn, r *codec.Reader, w *codec.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serve(conn, codec.NewReader(conn), codec.NewWriter(conn))
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln.Addr().String()
}

// grantAll answers every acquire with a grant.
func grantAll(conn net.Conn, r *codec.Reader, w *codec.Writer) {
	var f codec.Frame
	for r.Next(&f) == nil {
		w.WriteFrame(&codec.Frame{Type: codec.TGrant, Corr: f.Corr, Agent: f.Agent,
			Resource: f.Resource, Token: []byte("tok")})
	}
}

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func acquire() *codec.Frame {
	return &codec.Frame{Type: codec.TAcquire, Agent: 3, Resource: []byte("bus")}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func pendingCount(c *Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// TestConnFailureModes pins how far each kind of failed call got —
// the distinction callers' retry policies rest on — and that every
// failure leaves no pending entry behind.
func TestConnFailureModes(t *testing.T) {
	cases := []struct {
		name string
		// call provokes the failure and returns Call's error.
		call  func(t *testing.T) (*Conn, error)
		class error
		// closed reports whether the failure must also match ErrClosed.
		closed bool
		msg    string
	}{
		{
			name: "dial refused: not sent",
			call: func(t *testing.T) (*Conn, error) {
				c := NewConn(deadAddr(t), time.Second)
				_, err := c.Call(context.Background(), acquire())
				return c, err
			},
			class: ErrNotSent,
			msg:   "refused",
		},
		{
			// The socket tears under a live Conn with the far end gone
			// for good. Whether the call meets the dead socket (the
			// write fails) or the reader retired it first (the redial is
			// refused), nothing reaches the wire.
			name: "write after a tear: not sent",
			call: func(t *testing.T) (*Conn, error) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				c := NewConn(ln.Addr().String(), time.Second)
				if err := c.Dial(); err != nil {
					t.Fatal(err)
				}
				ln.Close() // may already reset the unaccepted connection
				c.mu.Lock()
				if c.nc != nil {
					c.nc.Close()
				}
				c.mu.Unlock()
				_, err = c.Call(context.Background(), acquire())
				return c, err
			},
			class: ErrNotSent,
		},
		{
			name: "torn mid-call: sent, then failed",
			call: func(t *testing.T) (*Conn, error) {
				addr := peer(t, func(conn net.Conn, r *codec.Reader, w *codec.Writer) {
					var f codec.Frame
					r.Next(&f) // read the request, then hang up unanswered
				})
				c := NewConn(addr, time.Second)
				_, err := c.Call(context.Background(), acquire())
				return c, err
			},
			class: ErrTorn,
			msg:   "lost",
		},
		{
			name: "unexpected frame type: the connection tears",
			call: func(t *testing.T) (*Conn, error) {
				addr := peer(t, func(conn net.Conn, r *codec.Reader, w *codec.Writer) {
					var f codec.Frame
					if r.Next(&f) == nil {
						w.WriteFrame(&codec.Frame{Type: codec.TAcquire, Corr: f.Corr, Resource: []byte("bus")})
						r.Next(&f) // hold the connection until the client drops it
					}
				})
				c := NewConn(addr, time.Second)
				_, err := c.Call(context.Background(), acquire())
				if c.Connected() {
					t.Error("connection still up after an unexpected frame")
				}
				return c, err
			},
			class: ErrTorn,
			msg:   "unexpected Acquire frame",
		},
		{
			name: "ctx abandoned: the late reply is dropped",
			call: func(t *testing.T) (*Conn, error) {
				release := make(chan struct{})
				addr := peer(t, func(conn net.Conn, r *codec.Reader, w *codec.Writer) {
					var f codec.Frame
					for r.Next(&f) == nil {
						corr := f.Corr
						<-release
						w.WriteFrame(&codec.Frame{Type: codec.TReleased, Corr: corr, Resource: []byte("bus")})
					}
				})
				c := NewConn(addr, time.Second)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				_, err := c.Call(ctx, acquire())
				close(release) // the reply arrives after the caller left
				// The connection survives the stray reply and carries the
				// next call.
				m, nerr := c.Call(context.Background(), acquire())
				if nerr != nil || m.Type != codec.TReleased {
					t.Errorf("call after an abandoned one = %+v, %v; want the peer's reply", m, nerr)
				}
				return c, err
			},
			class: ErrAbandoned,
			msg:   "deadline",
		},
		{
			name: "Close: calls in flight fail",
			call: func(t *testing.T) (*Conn, error) {
				addr := peer(t, func(conn net.Conn, r *codec.Reader, w *codec.Writer) {
					var f codec.Frame
					for r.Next(&f) == nil { // never answer
					}
				})
				c := NewConn(addr, time.Second)
				errc := make(chan error, 1)
				go func() {
					_, err := c.Call(context.Background(), acquire())
					errc <- err
				}()
				waitFor(t, "the call in flight", func() bool { return pendingCount(c) == 1 })
				c.Close()
				if _, err := c.Call(context.Background(), acquire()); !errors.Is(err, ErrNotSent) || !errors.Is(err, ErrClosed) {
					t.Errorf("call after Close err = %v, want ErrNotSent and ErrClosed", err)
				}
				return c, <-errc
			},
			class:  ErrTorn,
			closed: true,
			msg:    "closed",
		},
	}
	classes := []error{ErrNotSent, ErrTorn, ErrAbandoned}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Registered first, so it runs after the scripted peer has
			// stopped: what remains is the Conn's own.
			runtime.GC()
			before := runtime.NumGoroutine()
			t.Cleanup(func() { waitBaseline(t, before) })
			c, err := tc.call(t)
			if err == nil {
				t.Fatal("call succeeded")
			}
			for _, class := range classes {
				if got, want := errors.Is(err, class), class == tc.class; got != want {
					t.Errorf("errors.Is(%v, %v) = %v, want %v", err, class, got, want)
				}
			}
			if got := errors.Is(err, ErrClosed); got != tc.closed {
				t.Errorf("errors.Is(%v, ErrClosed) = %v, want %v", err, got, tc.closed)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("err %q does not mention %q", err, tc.msg)
			}
			if n := pendingCount(c); n != 0 {
				t.Errorf("%d pending entries left behind", n)
			}
			c.Close()
		})
	}
}

// TestConnCloseJoinsReader pins Close's contract against a live,
// answering peer: after traffic and Close the process is back at its
// goroutine baseline once the peer is gone too.
func TestConnCloseJoinsReader(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		grantAll(conn, codec.NewReader(conn), codec.NewWriter(conn))
	}()
	c := NewConn(ln.Addr().String(), time.Second)
	m, err := c.Call(context.Background(), acquire())
	if err != nil || m.Type != codec.TGrant || m.Token != "tok" || m.Agent != 3 {
		t.Fatalf("call = %+v, %v; want the peer's grant", m, err)
	}
	c.Close()
	c.Close() // idempotent
	ln.Close()
	<-served
	waitBaseline(t, before)
}

// waitBaseline waits up to two seconds for the goroutine count to fall
// back to before (finalizers and exiting goroutines settle
// asynchronously).
func waitBaseline(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d before, %d after Close", before, n)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConnMultiplexes pins correlation under concurrency: many
// goroutines share one Conn, and each gets its own reply (the peer
// echoes the agent) with nothing left pending.
func TestConnMultiplexes(t *testing.T) {
	c := NewConn(peer(t, grantAll), time.Second)
	defer c.Close()
	const callers, calls = 16, 50
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func(agent int) {
			for i := 0; i < calls; i++ {
				f := acquire()
				f.Agent = uint32(agent)
				m, err := c.Call(context.Background(), f)
				if err == nil && m.Agent != agent {
					err = fmt.Errorf("agent %d got agent %d's reply", agent, m.Agent)
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g + 1)
	}
	for g := 0; g < callers; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	if n := pendingCount(c); n != 0 {
		t.Errorf("%d pending entries left behind", n)
	}
}

// TestConnEncodeErrorUnclassified pins that a frame which cannot
// encode is refused before the wire without a retryable class, and
// that the connection stays usable.
func TestConnEncodeErrorUnclassified(t *testing.T) {
	c := NewConn(peer(t, grantAll), time.Second)
	defer c.Close()
	big := acquire()
	big.Resource = make([]byte, codec.MaxPayload)
	_, err := c.Call(context.Background(), big)
	if !errors.Is(err, codec.ErrTooLong) || errors.Is(err, ErrNotSent) || errors.Is(err, ErrTorn) {
		t.Fatalf("oversized frame err = %v, want codec.ErrTooLong and no class", err)
	}
	if _, err := c.Call(context.Background(), acquire()); err != nil {
		t.Fatalf("call after an encode error: %v", err)
	}
}

// TestMsgFrameRoundTrip pins the conversions: a Msg survives Frame →
// encode → decode → FromFrame, including the signed agent decode and
// the routed flag.
func TestMsgFrameRoundTrip(t *testing.T) {
	msgs := []Msg{
		{Type: codec.TAcquire, Corr: 9, Resource: "bus", Agent: -1, Timeout: time.Second, TTL: time.Minute},
		{Type: codec.TGrant, Corr: 10, Routed: true, Route: "\x01hint", Resource: "bus", Agent: 4, TTL: time.Second, Token: "t"},
		{Type: codec.TRelease, Corr: 11, Resource: "bus", Token: "t"},
		{Type: codec.TReleased, Corr: 12, Resource: "bus"},
		ErrorMsg(503, "busy"),
	}
	for _, m := range msgs {
		f := m.Frame()
		buf, err := codec.Append(nil, &f)
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		var g codec.Frame
		if _, err := codec.Decode(buf, &g); err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if got := FromFrame(&g); got != m {
			t.Errorf("round trip = %+v, want %+v", got, m)
		}
	}
}
