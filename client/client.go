// Package client is the public, transport-agnostic client for an
// arbd arbitration daemon: acquire and release leases on named
// resources arbitrated by the paper's protocols, over either of the
// daemon's transports — JSON over HTTP, or the compact binary
// protocol (length-prefixed frames over one persistent multiplexed
// TCP connection; spec in docs/WIRE.md).
//
// The transport is selected by the Dial target's scheme:
//
//	c, err := client.Dial("http://127.0.0.1:8321") // HTTP transport
//	c, err := client.Dial("tcp://127.0.0.1:8322")  // binary transport
//	defer c.Close()
//
//	lease, err := c.Acquire(ctx, "bus", 3, client.AcquireOptions{
//		Timeout: 2 * time.Second,
//	})
//	if err != nil { ... }
//	defer c.Release(ctx, lease)
//
// A Client is safe for concurrent use: many logical agents share one
// Client (and, on the binary transport, one connection — requests are
// correlated by ID, so a thousand closed-loop agents cost one
// socket).
//
// Errors follow a typed taxonomy shared by both transports. Use
// errors.Is:
//
//	errors.Is(err, client.ErrDeadline) // 408: timeout while queued, or abandoned
//	errors.Is(err, client.ErrOverload) // 503: full queue or daemon shutting down
//	errors.Is(err, client.ErrClosed)   // this Client was closed
//
// Every server-reported failure is an *Error carrying the daemon's
// numeric code and message, so the non-sentinel cases (400 bad
// request, 404 unknown resource or lease) stay inspectable.
//
// Against a multi-node arbd cluster, DialCluster takes the full
// member list, learns which node owns which resource (eagerly from
// /clusterz, or lazily from the owner hints on routed responses) and
// sends each call directly to its owner, falling back to any member —
// whose forwarding layer still lands the frame — when the owner is
// unreachable. Transient connection failures on the binary transport
// retry with jittered exponential backoff before surfacing
// ErrRetriesExhausted; see WithRetries and WithRetryBackoff.
package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Lease is a granted resource tenure. Hold it for up to TTL and
// Release it when done; an unreleased lease lapses at its TTL.
type Lease struct {
	// Resource is the arbitrated resource the lease is on.
	Resource string `json:"resource"`
	// Agent is the arbitrating identity that was granted.
	Agent int `json:"agent"`
	// Token identifies the lease to Release.
	Token string `json:"token"`
	// TTL is the granted lifetime.
	TTL time.Duration `json:"ttl_ns"`
}

// The sentinel errors of the taxonomy. Server-side conditions arrive
// as *Error values that match these under errors.Is.
var (
	// ErrDeadline reports an acquire that was not granted in time: the
	// requested Timeout passed while queued, or the context was
	// abandoned (the daemon's 408).
	ErrDeadline = errors.New("client: deadline exceeded")
	// ErrOverload reports backpressure: the resource's queue is full
	// or the daemon is shutting down (the daemon's 503). Try elsewhere
	// or later.
	ErrOverload = errors.New("client: server overloaded")
	// ErrClosed reports use of a closed Client.
	ErrClosed = errors.New("client: closed")
)

// Error is a failure reported by the daemon, on either transport.
type Error struct {
	// Code is the daemon's transport-neutral status: 400 bad request,
	// 404 unknown resource or lease, 408 deadline, 503 overload.
	Code int
	// Msg is the daemon's message.
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return fmt.Sprintf("client: server error %d", e.Code)
}

// Is maps the taxonomy's codes onto the sentinel errors, so
// errors.Is(err, ErrDeadline) matches any 408 and errors.Is(err,
// ErrOverload) any 503.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrDeadline:
		return e.Code == 408
	case ErrOverload:
		return e.Code == 503
	}
	return false
}

// AcquireOptions tunes one acquire. The zero value asks for the
// resource's defaults.
type AcquireOptions struct {
	// Timeout bounds the time spent queued before the daemon answers
	// ErrDeadline; 0 waits indefinitely (the context still applies).
	Timeout time.Duration
	// TTL requests a lease lifetime; 0 (or anything above the
	// resource's configured maximum) gets the resource's default.
	TTL time.Duration
}

// transport is the seam between the public API and the two wire
// protocols. Implementations are safe for concurrent use.
type transport interface {
	acquire(ctx context.Context, resource string, agent int, opts AcquireOptions) (Lease, error)
	release(ctx context.Context, resource, token string) error
	close() error
}

// Client talks to one arbd daemon. Create with Dial; a Client is safe
// for concurrent use by many goroutines (logical agents).
type Client struct {
	t transport
}

// Option adjusts Dial.
type Option func(*options)

type options struct {
	dialTimeout     time.Duration
	retryAttempts   int
	retryBase       time.Duration
	retryJitterSeed uint64
	seedSet         bool
}

func defaultOptions() options {
	return options{
		dialTimeout:   10 * time.Second,
		retryAttempts: 3,
		retryBase:     50 * time.Millisecond,
	}
}

// resolve finalizes the options after every Option ran: clients that
// did not pin a jitter seed get a per-client one off a process
// counter, so a fleet created together still spreads its redials.
func (o *options) resolve() {
	if !o.seedSet {
		o.retryJitterSeed = nextRetrySeed()
	}
}

// WithDialTimeout bounds the binary transport's connection attempts
// (the initial dial and any redial after a torn connection). The
// default is 10 seconds. The HTTP transport ignores it.
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) { o.dialTimeout = d }
}

// WithRetries bounds the binary transport's retry of transient
// connection failures (refused redial, connection torn before the
// request was written): up to n attempts in total per call, with
// jittered exponential backoff between them. n <= 1 disables
// retrying; the default is 3 attempts. When the budget runs out the
// call fails with an error matching ErrRetriesExhausted that wraps
// the last underlying failure. The HTTP transport ignores it.
func WithRetries(n int) Option {
	return func(o *options) {
		if n < 1 {
			n = 1
		}
		o.retryAttempts = n
	}
}

// WithRetryBackoff sets the base backoff before the first retry
// (doubled each further attempt, jittered over [1/2, 3/2) of itself).
// The default is 50ms.
func WithRetryBackoff(base time.Duration) Option {
	return func(o *options) { o.retryBase = base }
}

// WithRetryJitterSeed pins the backoff jitter's random stream
// (busarb/internal/rng), making the retry schedule reproducible.
// Tests use it; production clients normally let each client draw its
// own seed.
func WithRetryJitterSeed(seed uint64) Option {
	return func(o *options) { o.retryJitterSeed = seed; o.seedSet = true }
}

// Dial connects to the daemon named by target and returns a Client on
// the transport its scheme selects:
//
//	http:// or https://  the JSON-over-HTTP surface
//	tcp://               the binary protocol (persistent multiplexed conn)
//
// The binary transport connects eagerly, so an unreachable daemon
// fails here rather than on the first Acquire.
func Dial(target string, opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	o.resolve()
	switch {
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"):
		return &Client{t: newHTTPTransport(target)}, nil
	case strings.HasPrefix(target, "tcp://"):
		t, err := newBinaryTransport(strings.TrimPrefix(target, "tcp://"), o)
		if err != nil {
			return nil, err
		}
		return &Client{t: t}, nil
	}
	return nil, fmt.Errorf("client: target %q needs a scheme: http://, https://, or tcp://", target)
}

// Acquire blocks until agent is granted resource, the options'
// Timeout passes while queued (ErrDeadline), ctx ends, or the daemon
// pushes back (ErrOverload). The returned lease is live for its TTL
// or until Release.
func (c *Client) Acquire(ctx context.Context, resource string, agent int, opts AcquireOptions) (Lease, error) {
	return c.t.acquire(ctx, resource, agent, opts)
}

// Release ends a lease obtained from Acquire. Releasing a lease that
// already lapsed (or was never granted) reports a 404 *Error.
func (c *Client) Release(ctx context.Context, lease Lease) error {
	return c.t.release(ctx, lease.Resource, lease.Token)
}

// Close releases the client's connections. In-flight calls on the
// binary transport fail with ErrClosed; the Client is unusable
// afterwards.
func (c *Client) Close() error {
	return c.t.close()
}
