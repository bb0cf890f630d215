package grant

import (
	"fmt"
	"testing"

	"busarb/internal/contention"
	"busarb/internal/core"
	"busarb/internal/ident"
	"busarb/internal/rng"
)

// settleNumber returns agent id's composite arbitration number under
// p's live registers, read through core's exported accessors, and
// whether id competes (RR3 inhibits identities at or above the
// previous winner).
func settleNumber(p core.Protocol, id int) (uint64, bool) {
	w := ident.Width(p.N())
	switch p := p.(type) {
	case *core.FixedPriority:
		return ident.LayoutFor(p.N()).Encode(ident.Number{Static: id}), true
	case *core.RR1:
		l := ident.Layout{StaticBits: w, RRBit: true}
		return l.Encode(ident.Number{Static: id, RR: id < p.LastWinner()}), true
	case *core.RR3:
		return ident.LayoutFor(p.N()).Encode(ident.Number{Static: id}), id < p.LastWinner()
	case *core.FCFS1:
		l := ident.Layout{StaticBits: w, CounterBits: w}
		return l.Encode(ident.Number{Static: id, Counter: p.Counter(id)}), true
	case *core.FCFS2:
		l := ident.Layout{StaticBits: w, CounterBits: w}
		return l.Encode(ident.Number{Static: id, Counter: p.Counter(id)}), true
	}
	panic("no settle encoding for " + p.Name())
}

// TestKernelMatchesSettleOracle checks the serving path end to end
// against the wired-OR model: random Enqueue/Resolve histories through
// the scheduler, each grant predicted by contention.RunSettle over the
// composite numbers of the lines the test itself tracks as asserted,
// and RR3's empty passes counted the same way. Agent counts straddle
// the 64-bit words the scheduler's request bitmap packs lines into.
// (internal/core's test of the same name pins each protocol's
// Arbitrate to the settle per pass; this one pins what the adapter
// feeds it and reports.)
func TestKernelMatchesSettleOracle(t *testing.T) {
	for _, name := range []string{"FP", "RR1", "RR3", "FCFS1", "FCFS2"} {
		for _, n := range []int{1, 2, 5, 63, 64, 65, 130, 1024} {
			if n > 200 && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				f, err := core.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				p := f(n)
				s := New(p)
				width := 2*ident.Width(n) + 1 // covers every layout above
				arb := contention.New(width, n+1)
				pending := make([]bool, n+1)
				var comps []contention.Competitor
				var repasses int64
				// settle predicts the next grant from the current state.
				settle := func() int {
					for pass := 0; pass < 2; pass++ {
						comps = comps[:0]
						for id := 1; id <= n; id++ {
							if !pending[id] {
								continue
							}
							if num, ok := settleNumber(p, id); ok || pass == 1 {
								comps = append(comps, contention.Competitor{Agent: id, Number: num})
							}
						}
						if res := arb.RunSettle(comps); res.Winner >= 0 {
							return comps[res.Winner].Agent
						}
						repasses++ // empty pass: every agent records N+1
					}
					t.Fatal("settle found no winner with lines asserted")
					return 0
				}
				resolve := func(ev int) {
					want := settle()
					if got := s.Resolve(); got != want {
						t.Fatalf("event %d: Resolve = %d, settle winner %d", ev, got, want)
					}
					pending[want] = false
					if s.Repasses() != repasses {
						t.Fatalf("event %d: repasses %d, settle %d", ev, s.Repasses(), repasses)
					}
				}
				src := rng.New(uint64(n)*1315423911 + uint64(len(name)))
				events := 400
				if n > 200 {
					events = 1200 // enough churn to wrap lastWinner and counters
				}
				for ev := 0; ev < events; ev++ {
					if src.Intn(3) != 0 || s.Pending() == 0 {
						agent := 1 + src.Intn(n)
						if s.Enqueue(agent) == pending[agent] {
							t.Fatalf("event %d: Enqueue(%d) = %v with the line up = %v", ev, agent, pending[agent], pending[agent])
						}
						pending[agent] = true
						continue
					}
					resolve(ev)
				}
				for s.Pending() > 0 {
					resolve(events)
				}
				if w := s.Resolve(); w != 0 {
					t.Fatalf("drained scheduler granted %d", w)
				}
			})
		}
	}
}
