package arbd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"busarb/internal/arbd/codec"
	"busarb/internal/arbd/wire"
)

// BinaryServer serves the daemon over the compact binary protocol
// (internal/arbd/codec, spec in docs/WIRE.md): length-prefixed frames
// over persistent connections, many in-flight acquires per connection
// correlated by ID. It is the second transport onto the same
// transport-blind Daemon.Acquire/Daemon.Release entry points the HTTP
// handlers use — the shard loops cannot tell the transports apart.
//
// Per connection: one reader goroutine decodes frames; each acquire
// runs in its own goroutine (acquires block, and blocking the reader
// would serialize the multiplexed agents behind one grant); one
// writer goroutine owns the connection's write side and serializes
// the responses. A dropped connection abandons its in-flight acquires
// the same way a closed HTTP request body does: their contexts
// cancel, and queued waiters are answered (and discarded) through the
// shard's 408 path.
type BinaryServer struct {
	d *Daemon
	// router, when non-nil, makes this a cluster node: frames for
	// resources it does not own are proxied to the owner instead of
	// hitting the local daemon. See Router.
	router Router

	mu     sync.Mutex
	ln     net.Listener          // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu

	wg sync.WaitGroup // one per live connection handler
}

// Router is the seam between the binary server and a cluster layer
// (internal/arbd/cluster). A routed BinaryServer consults it per
// request: resources the router owns are served by the local Daemon
// exactly as on a standalone server; requests for foreign resources
// go to Forward, which proxies them to the owning node. The server
// stays transport-mechanical — membership, hop limits, deadline
// decrements and connection pooling all live behind this interface.
//
// Implementations must be safe for concurrent use: the server calls
// Owns from every connection's reader goroutine and Forward from
// per-request goroutines.
type Router interface {
	// Owns reports whether the local node is the owner of resource
	// under the cluster's ring. Unknown resources are "owned" too —
	// the local daemon answers 404 with more context than a routing
	// layer could.
	Owns(resource string) bool

	// Forward proxies an Acquire or Release to the owner and blocks
	// until the owner answers, the forward fails, or ctx is done. It
	// always returns a terminal reply (Grant, Released or Error) whose
	// Route is the owner hint (codec.AppendOwnerRoute layout); the
	// server relays it under FlagRouted with the request's correlation
	// ID, so clients learn resource placement lazily.
	Forward(ctx context.Context, req wire.Msg) wire.Msg
}

// ErrServerClosed is Serve's return after Close, mirroring
// net/http.ErrServerClosed.
var ErrServerClosed = errors.New("arbd: binary server closed")

// NewBinaryServer returns a server for d. Serve starts it; Close
// stops it.
func NewBinaryServer(d *Daemon) *BinaryServer {
	return &BinaryServer{d: d, conns: make(map[net.Conn]struct{})}
}

// NewRoutedBinaryServer returns a cluster-aware server: frames for
// resources r does not own are forwarded through r to their owner and
// the answer relayed back under FlagRouted. Frames r owns behave
// exactly as on a standalone server.
func NewRoutedBinaryServer(d *Daemon, r Router) *BinaryServer {
	return &BinaryServer{d: d, router: r, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close, blocking like
// http.Server.Serve. It returns ErrServerClosed after Close, or the
// first accept error otherwise.
func (s *BinaryServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every live connection (in-flight
// acquires are abandoned via their contexts), and waits for all
// connection handlers to exit. It is idempotent.
func (s *BinaryServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// dropConn forgets a finished connection.
func (s *BinaryServer) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn runs one connection: reader here, writer and per-acquire
// goroutines below.
func (s *BinaryServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	defer conn.Close()

	// ctx abandons this connection's in-flight acquires when the read
	// side ends (peer gone or server closing).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The writer drains responses until the channel closes; a write
	// error degrades it into a discard loop so blocked senders can
	// still finish. The channel is closed only after every sender has
	// finished (in-flight requests are waited for, the reader sends
	// inline), so a send can neither deadlock nor panic.
	responses := make(chan wire.Msg, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := codec.NewWriter(conn)
		broken := false
		for m := range responses {
			if broken {
				continue
			}
			f := m.Frame()
			if err := w.WriteFrame(&f); err != nil {
				broken = true
			}
		}
	}()

	var inflight sync.WaitGroup // acquires and forwards; they block
	r := codec.NewReader(conn)
	var f codec.Frame
	for {
		if err := r.Next(&f); err != nil {
			// io.EOF is the peer's orderly goodbye; anything else —
			// malformed frame, version skew, torn connection, our own
			// Close — also just ends the conversation. A codec error is
			// answered best-effort before hanging up.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				rep := wire.ErrorMsg(codeBadRequest, fmt.Sprintf("arbd: %v", err))
				rep.Corr = f.Corr
				responses <- rep
			}
			break
		}
		if f.Type != codec.TAcquire && f.Type != codec.TRelease {
			rep := wire.ErrorMsg(codeBadRequest, fmt.Sprintf("arbd: unexpected %v frame", f.Type))
			rep.Corr = f.Corr
			responses <- rep
			continue
		}
		// Own the buffer-aliased fields before the next Next call
		// invalidates them.
		req := wire.FromFrame(&f)
		switch {
		case s.router != nil && !s.router.Owns(req.Resource):
			// A forward blocks on the owner, so it runs in its own
			// goroutine, like a local acquire: release→response ordering
			// is per-node, not preserved across a hop. The relay is always
			// routed, carrying the router's owner hint.
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				rep := s.router.Forward(ctx, req)
				rep.Corr, rep.Routed = req.Corr, true
				responses <- rep
			}()
		case req.Type == codec.TAcquire:
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				responses <- reply(req, s.acquire(ctx, req))
			}()
		default:
			// Releases resolve against the shard loop without blocking
			// on a grant, so they are answered inline, preserving
			// release→response ordering on the connection.
			rep := wire.Msg{Type: codec.TReleased, Resource: req.Resource}
			if serr := s.d.Release(req.Resource, req.Token); serr != nil {
				rep = wire.ErrorMsg(serr.code, serr.msg)
			}
			responses <- reply(req, rep)
		}
	}
	// Reader is done: cancel in-flight requests, let them finish
	// replying, then retire the writer.
	cancel()
	inflight.Wait()
	close(responses)
	<-writerDone
}

// acquire blocks on the shard and returns the grant or error.
func (s *BinaryServer) acquire(ctx context.Context, req wire.Msg) wire.Msg {
	lease, serr := s.d.Acquire(ctx, req.Resource, req.Agent, req.Timeout, req.TTL)
	if serr != nil {
		return wire.ErrorMsg(serr.code, serr.msg)
	}
	return wire.Msg{
		Type:     codec.TGrant,
		Resource: lease.Resource,
		Agent:    lease.Agent,
		TTL:      lease.TTL,
		Token:    lease.Token,
	}
}

// reply addresses rep as the answer to req: req's correlation ID and,
// when req crossed a node, its route field echoed under FlagRouted.
func reply(req, rep wire.Msg) wire.Msg {
	rep.Corr = req.Corr
	if req.Routed {
		rep.Routed, rep.Route = true, req.Route
	}
	return rep
}
