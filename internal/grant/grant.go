// Package grant hosts the paper's arbitration protocols (§3) as
// real-time grant schedulers: the arbd shard loops grant shared
// resources in wall-clock time through the very core.Protocol
// instances the simulators run in simulated time. There is one
// implementation of each protocol (internal/core) and one of each
// topology (topo.SimTree); this package is only the adapter between
// them and the Enqueue/Resolve surface of a shard.
//
// A Scheduler is the request-line side of one bus: Enqueue(agent)
// asserts agent's request line, Resolve() runs one arbitration among
// the asserted lines and grants the winner. It drives the protocol
// exactly as internal/bussim does — OnRequest per arrival, Arbitrate
// over the ascending waiting set (again on a repass), OnServiceStart
// for the winner — so every core protocol, and every arbitration tree,
// serves with the fairness the simulators measure.
//
// Schedulers are single-goroutine, like core.Protocol: the owner (one
// shard loop) serializes Enqueue and Resolve. Enqueue and Resolve are
// allocation-free in steady state whenever the protocol is (guarded by
// tests and by BenchmarkGrantResolve's ReportAllocs).
package grant

import (
	"fmt"
	"math/bits"

	"busarb/internal/bitarb"
	"busarb/internal/core"
)

// Scheduler is a real-time grant scheduler for one shared resource
// with agents 1..N.
type Scheduler struct {
	p        core.Protocol
	n        int
	req      *bitarb.Vec // asserted request lines, bit i = agent i
	npend    int
	waiting  []int   // Resolve's ascending waiting-set scratch
	now      float64 // synthetic clock, one tick per protocol event
	repasses int64
}

// Factory builds a scheduler for an n-agent resource.
type Factory func(n int) *Scheduler

// New returns a scheduler granting through p.
func New(p core.Protocol) *Scheduler {
	n := p.N()
	return &Scheduler{p: p, n: n, req: bitarb.NewVec(n), waiting: make([]int, 0, n)}
}

// ByName returns the factory for a core protocol name.
func ByName(name string) (Factory, error) {
	f, err := core.ByName(name)
	if err != nil {
		return nil, err
	}
	return func(n int) *Scheduler { return New(f(n)) }, nil
}

// Name returns the protocol's name ("RR1", "FCFS2(4xRR1:8)", ...).
func (s *Scheduler) Name() string { return s.p.Name() }

// N returns the number of agents the instance was built for.
func (s *Scheduler) N() int { return s.n }

// Pending returns the number of asserted request lines.
func (s *Scheduler) Pending() int { return s.npend }

// Repasses returns the cumulative number of empty arbitration passes
// (RR3's winning identity zero, §3.1) that Resolve has re-run — the
// extra arbitrations the paper charges for.
func (s *Scheduler) Repasses() int64 { return s.repasses }

// tick advances the synthetic clock. Every arrival gets its own
// instant, so FCFS2's a-incr pulses never merge: over the network no
// two requests share the §3.2 sensing window.
func (s *Scheduler) tick() float64 {
	s.now++
	return s.now
}

// Enqueue asserts agent's request line. It reports whether the line
// was newly asserted; enqueueing an already-pending agent is a no-op
// returning false (one outstanding request per agent, the paper's
// model — callers queue excess requests behind the line). Enqueue
// panics on an agent outside 1..N.
func (s *Scheduler) Enqueue(agent int) bool {
	if agent < 1 || agent > s.n {
		panic(fmt.Sprintf("grant: agent %d out of range 1..%d", agent, s.n))
	}
	if s.req.Test(agent) {
		return false
	}
	s.req.Set(agent)
	s.npend++
	s.p.OnRequest(agent, s.tick())
	return true
}

// Resolve runs one arbitration among the pending agents and returns
// the winner's identity, removing it from the pending set (the winner
// assumes resource mastership). It returns 0 when no agent is pending
// — the idle bus, where no arbitration starts.
func (s *Scheduler) Resolve() int {
	if s.npend == 0 {
		return 0
	}
	waiting := s.waiting[:0]
	for i, w := range s.req.Words() {
		for ; w != 0; w &= w - 1 {
			waiting = append(waiting, i*64+bits.TrailingZeros64(w))
		}
	}
	s.waiting = waiting
	out := s.p.Arbitrate(waiting)
	for out.Repass {
		s.repasses++
		out = s.p.Arbitrate(waiting)
	}
	w := out.Winner
	s.req.Clear(w)
	s.npend--
	s.p.OnServiceStart(w, s.tick())
	return w
}

// Reset restores initial state: pending lines, protocol registers and
// the repass count cleared.
func (s *Scheduler) Reset() {
	s.req.Reset()
	s.npend = 0
	s.now = 0
	s.repasses = 0
	s.p.Reset()
}
