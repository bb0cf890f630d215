package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"busarb/internal/arbd/codec"
	"busarb/internal/arbd/wire"
)

// binaryTransport speaks the daemon's binary protocol (docs/WIRE.md):
// one persistent TCP connection (a wire.Conn) carrying
// length-prefixed frames, with every in-flight call correlated by ID
// so any number of logical agents multiplex over it. The connection
// is dialed eagerly by Dial and redialed if it tears; calls in flight
// when it tears fail with the connection's error, and calls that
// never reached the wire are retried under the retry policy.
type binaryTransport struct {
	conn  *wire.Conn
	retry *retryPolicy
}

func newBinaryTransport(addr string, o options) (*binaryTransport, error) {
	t := &binaryTransport{conn: wire.NewConn(addr, o.dialTimeout), retry: newRetryPolicy(o)}
	if err := t.conn.Dial(); err != nil {
		return nil, callError(err)
	}
	return t, nil
}

// call sends f under the retry policy and returns the daemon's
// non-error reply; an Error frame becomes an *Error.
func (t *binaryTransport) call(ctx context.Context, f *codec.Frame) (wire.Msg, error) {
	var m wire.Msg
	err := t.retry.run(ctx, func() error {
		var err error
		if m, err = t.conn.Call(ctx, f); err != nil {
			return callError(err)
		}
		if m.Type == codec.TError {
			return &Error{Code: m.Code, Msg: m.Text}
		}
		return nil
	})
	return m, err
}

// callError maps a wire.Conn failure onto the client's taxonomy: a
// closed client is ErrClosed, an abandoned call the deadline's 408,
// and a call that never reached the wire is transient (retryable).
func callError(err error) error {
	switch {
	case errors.Is(err, wire.ErrClosed):
		return ErrClosed
	case errors.Is(err, wire.ErrAbandoned):
		return &Error{Code: 408, Msg: "client: context done before response: " + err.Error()}
	case errors.Is(err, wire.ErrNotSent):
		return &transientError{fmt.Errorf("client: %w", err)}
	}
	return fmt.Errorf("client: %w", err)
}

// acquireMsg sends one acquire and returns the daemon's reply.
func (t *binaryTransport) acquireMsg(ctx context.Context, resource string, agent int, opts AcquireOptions) (wire.Msg, error) {
	timeout := opts.Timeout
	if timeout == 0 {
		// No explicit timeout: let a context deadline bound the queue
		// wait server-side too, so the daemon answers 408 and discards
		// the waiter instead of granting into an abandoned call.
		if deadline, ok := ctx.Deadline(); ok {
			if timeout = time.Until(deadline); timeout <= 0 {
				return wire.Msg{}, &Error{Code: 408, Msg: "client: context deadline already passed"}
			}
		}
	}
	return t.call(ctx, &codec.Frame{
		Type:      codec.TAcquire,
		Agent:     uint32(agent),
		TimeoutNS: int64(timeout),
		TTLNS:     int64(opts.TTL),
		Resource:  []byte(resource),
	})
}

// releaseMsg sends one release and returns the daemon's reply.
func (t *binaryTransport) releaseMsg(ctx context.Context, resource, token string) (wire.Msg, error) {
	return t.call(ctx, &codec.Frame{
		Type:     codec.TRelease,
		Resource: []byte(resource),
		Token:    []byte(token),
	})
}

// leaseOf maps a grant onto the public Lease.
func leaseOf(m wire.Msg, err error) (Lease, error) {
	if err != nil {
		return Lease{}, err
	}
	return Lease{Resource: m.Resource, Agent: m.Agent, Token: m.Token, TTL: m.TTL}, nil
}

func (t *binaryTransport) acquire(ctx context.Context, resource string, agent int, opts AcquireOptions) (Lease, error) {
	return leaseOf(t.acquireMsg(ctx, resource, agent, opts))
}

func (t *binaryTransport) release(ctx context.Context, resource, token string) error {
	_, err := t.releaseMsg(ctx, resource, token)
	return err
}

func (t *binaryTransport) close() error {
	t.conn.Close()
	return nil
}
