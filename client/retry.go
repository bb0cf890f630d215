package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"busarb/internal/rng"
)

// retrySeeds hands each client that did not pin a jitter seed a
// distinct one: deterministic per process (no wall clock, no global
// rand), different per client, which is all the lockstep-avoidance
// needs.
var retrySeeds atomic.Uint64

func nextRetrySeed() uint64 {
	return retrySeeds.Add(1) * 0x9e3779b97f4a7c15
}

// ErrRetriesExhausted reports that the binary transport's bounded
// retry gave up: every attempt failed with a transient connection
// error (refused dial, torn connection before the request was
// written). The last underlying error is wrapped and inspectable with
// errors.As/Is.
var ErrRetriesExhausted = errors.New("client: retries exhausted")

// transientError marks a failure that happened before the request
// reached the wire — a dial or write error. Only these are retried:
// once a frame is written the daemon may have acted on it, and
// retrying an acquire whose fate is unknown could double-grant.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// retryPolicy is the binary transport's bounded retry with jittered
// exponential backoff. The jitter source is busarb/internal/rng —
// deterministic under WithRetryJitterSeed, so tests can pin the exact
// delay schedule.
type retryPolicy struct {
	attempts int
	base     time.Duration

	mu  sync.Mutex
	rng *rng.Source // guarded by mu

	// sleep waits between attempts; tests stub it to capture the
	// schedule without waiting it out. ctx ends the wait early.
	sleep func(ctx context.Context, d time.Duration) error
}

func newRetryPolicy(o options) *retryPolicy {
	return &retryPolicy{
		attempts: o.retryAttempts,
		base:     o.retryBase,
		rng:      rng.New(o.retryJitterSeed),
		sleep:    sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// delay computes the attempt'th backoff: base doubled per attempt,
// jittered uniformly over [1/2, 3/2) of itself so a fleet of clients
// that failed together does not redial in lockstep.
func (p *retryPolicy) delay(attempt int) time.Duration {
	d := p.base << attempt
	p.mu.Lock()
	j := p.rng.Float64()
	p.mu.Unlock()
	return d/2 + time.Duration(float64(d)*j)
}

// run invokes call until it succeeds, fails permanently, or the
// attempt budget is spent. A budget of 1 means no retries.
func (p *retryPolicy) run(ctx context.Context, call func() error) error {
	var last error
	for attempt := 0; attempt < p.attempts; attempt++ {
		if attempt > 0 {
			if err := p.sleep(ctx, p.delay(attempt-1)); err != nil {
				return &Error{Code: 408, Msg: "client: context done during retry backoff: " + err.Error()}
			}
		}
		err := call()
		// Transient errors come back unwrapped (callError builds them),
		// so a type assertion suffices; errors.As would heap-allocate
		// its target on every call.
		te, ok := err.(*transientError)
		if !ok {
			return err
		}
		last = te.err
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, p.attempts, last)
}
