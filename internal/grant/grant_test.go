package grant

import (
	"testing"

	"busarb/internal/core"
)

// mustByName builds the named scheduler for n agents.
func mustByName(t testing.TB, name string, n int) *Scheduler {
	t.Helper()
	f, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f(n)
}

// TestRR1RotationAtSaturation pins the round-robin scan: with every
// agent pending and each winner re-enqueued after its grant, RR1 must
// cycle N, N-1, ..., 1, N, ... — the §3.1 scan order.
func TestRR1RotationAtSaturation(t *testing.T) {
	const n = 5
	s := mustByName(t, "RR1", n)
	for id := 1; id <= n; id++ {
		s.Enqueue(id)
	}
	want := []int{5, 4, 3, 2, 1, 5, 4, 3, 2, 1}
	for i, w := range want {
		got := s.Resolve()
		if got != w {
			t.Fatalf("grant %d = agent %d, want %d", i, got, w)
		}
		s.Enqueue(got) // closed loop: the winner requests again
	}
}

// TestRR3MatchesRR1WithRepasses pins that RR3 produces RR1's grant
// sequence at saturation while charging empty passes: the first
// resolution (winner register 0) and every wrap of the scan cost one.
func TestRR3MatchesRR1WithRepasses(t *testing.T) {
	const n = 4
	s := mustByName(t, "RR3", n)
	for id := 1; id <= n; id++ {
		s.Enqueue(id)
	}
	want := []int{4, 3, 2, 1, 4, 3, 2, 1}
	for i, w := range want {
		got := s.Resolve()
		if got != w {
			t.Fatalf("grant %d = agent %d, want %d", i, got, w)
		}
		s.Enqueue(got)
	}
	// Empty passes: one at reset (winner register 0) and one per wrap
	// after agent 1 wins (nobody is below 1). The second wrap would be
	// charged by the ninth resolution, which never runs.
	if got := s.Repasses(); got != 2 {
		t.Errorf("repasses = %d, want 2 (reset + one wrap)", got)
	}
}

// TestFPStarvesLowIdentities pins the baseline's unfairness: with all
// agents saturated, FP grants only the highest identity.
func TestFPStarvesLowIdentities(t *testing.T) {
	const n = 6
	s := mustByName(t, "FP", n)
	for id := 1; id <= n; id++ {
		s.Enqueue(id)
	}
	for i := 0; i < 20; i++ {
		if w := s.Resolve(); w != n {
			t.Fatalf("grant %d went to agent %d, want %d", i, w, n)
		}
		s.Enqueue(n)
	}
}

// TestFCFS2ArrivalOrder pins exact arrival-order service, including an
// arrival order adversarial to static priority: every Enqueue is its
// own a-incr pulse.
func TestFCFS2ArrivalOrder(t *testing.T) {
	s := mustByName(t, "FCFS2", 8)
	order := []int{3, 6, 1, 5, 8, 2}
	for _, id := range order {
		s.Enqueue(id)
	}
	for i, want := range order {
		if got := s.Resolve(); got != want {
			t.Fatalf("grant %d = agent %d, want %d (arrival order)", i, got, want)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after draining, want 0", s.Pending())
	}
}

// TestFCFS1SeniorityAccumulates pins the lose-counting rule: a loser's
// counter grows until it dominates fresher requests.
func TestFCFS1SeniorityAccumulates(t *testing.T) {
	s := mustByName(t, "FCFS1", 4)
	s.Enqueue(1)
	s.Enqueue(4)
	if w := s.Resolve(); w != 4 {
		t.Fatalf("first grant = %d, want 4 (tie on counter 0 broken by identity)", w)
	}
	// Agent 1 lost once (counter 1); a fresh request from 4 (counter 0)
	// must now lose to it.
	s.Enqueue(4)
	if w := s.Resolve(); w != 1 {
		t.Fatalf("second grant = %d, want 1 (seniority)", w)
	}
}

// TestResolveEmptyReturnsZero pins the idle-bus contract for every
// protocol, including RR3 (no empty pass is charged when no agent is
// pending — arbitration only starts on a request).
func TestResolveEmptyReturnsZero(t *testing.T) {
	for _, name := range core.Names() {
		s := mustByName(t, name, 4)
		if w := s.Resolve(); w != 0 {
			t.Errorf("%s: Resolve on empty = %d, want 0", name, w)
		}
		if s.Repasses() != 0 {
			t.Errorf("%s: empty Resolve charged %d repasses, want 0", name, s.Repasses())
		}
	}
}

// TestEnqueueSemantics pins idempotence, Pending accounting, Reset,
// and the out-of-range panic, for every protocol.
func TestEnqueueSemantics(t *testing.T) {
	for _, name := range core.Names() {
		s := mustByName(t, name, 4)
		if !s.Enqueue(2) {
			t.Errorf("%s: first Enqueue(2) = false, want true", name)
		}
		if s.Enqueue(2) {
			t.Errorf("%s: duplicate Enqueue(2) = true, want false", name)
		}
		if s.Pending() != 1 {
			t.Errorf("%s: Pending = %d, want 1", name, s.Pending())
		}
		if w := s.Resolve(); w != 2 {
			t.Errorf("%s: Resolve = %d, want 2", name, w)
		}
		if s.Pending() != 0 {
			t.Errorf("%s: Pending after grant = %d, want 0", name, s.Pending())
		}
		s.Enqueue(3)
		s.Reset()
		if s.Pending() != 0 || s.Repasses() != 0 {
			t.Errorf("%s: Pending %d, Repasses %d after Reset, want 0", name, s.Pending(), s.Repasses())
		}
		if !s.Enqueue(3) || s.Resolve() != 3 {
			t.Errorf("%s: agent 3 not granted after Reset", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Enqueue(5) on n=4 did not panic", name)
				}
			}()
			s.Enqueue(5)
		}()
		if s.N() != 4 || s.Name() != name {
			t.Errorf("%s: N/Name mismatch: %d %q", name, s.N(), s.Name())
		}
	}
}

// TestByNameUnknown pins the error path and that every core protocol
// serves.
func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("BOGUS"); err == nil {
		t.Error("ByName(BOGUS) succeeded")
	}
	for _, name := range core.Names() {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
}

// TestSteadyStateAllocs guards the hot path: once the scheduler is
// built, a saturated enqueue/resolve cycle allocates nothing, for
// every core protocol. The arbd shard loop leans on this — a
// per-grant allocation would be paid millions of times a day.
func TestSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{8, 64, 1024} { // within a word, one word, kernel scale
		for _, name := range core.Names() {
			s := mustByName(t, name, n)
			cycle := func() {
				for id := 1; id <= n; id++ {
					s.Enqueue(id)
				}
				for s.Pending() > 0 {
					if s.Resolve() == 0 {
						t.Fatalf("%s: Resolve returned 0 with %d pending", name, s.Pending())
					}
				}
			}
			cycle() // warm any protocol-side scratch
			runs := 20
			if n > 64 {
				runs = 3 // the O(n)-per-event protocols make a cycle O(n²)
			}
			if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
				t.Errorf("%s/n=%d: steady-state enqueue/resolve cycle allocates %v times, want 0", name, n, allocs)
			}
		}
	}
}
