package topo

import (
	"sort"
	"testing"

	"busarb/internal/core"
	"busarb/internal/grant"
	"busarb/internal/rng"
)

// A tree has two faces over one implementation: the simulators drive
// a SimTree as a core.Protocol, and arbd serves one through the grant
// adapter. drive replays one random request/grant history through both
// — the simulator face under bussim's convention (enqueue = OnRequest,
// grant = Arbitrate until no repass, then OnServiceStart), the serving
// face through Enqueue/Resolve on a second tree — and requires
// identical winner sequences. It also pins the simulator face's
// per-hop record: LastHops lists the winner's path root first, each
// hop's line going up no later than the resolve.
func drive(t *testing.T, spec *Spec, seed uint64, steps int) {
	t.Helper()
	sim, err := NewSimTree(spec)
	if err != nil {
		t.Fatalf("NewSimTree: %v", err)
	}
	served, err := NewSimTree(spec)
	if err != nil {
		t.Fatalf("NewSimTree: %v", err)
	}
	gt := grant.New(served)
	n := spec.TotalAgents()
	if sim.N() != n || gt.N() != n {
		t.Fatalf("N: sim %d grant %d, want %d", sim.N(), gt.N(), n)
	}
	src := rng.New(seed)
	waiting := make([]bool, n+1)
	nwait := 0
	now := 0.0
	grants := 0
	for step := 0; step < steps; step++ {
		now += 1
		if nwait == 0 || (nwait < n && src.Float64() < 0.6) {
			g := 1 + src.Intn(n)
			for waiting[g] {
				g = 1 + src.Intn(n)
			}
			waiting[g] = true
			nwait++
			sim.OnRequest(g, now)
			if !gt.Enqueue(g) {
				t.Fatalf("step %d: Enqueue(%d) = false for idle line", step, g)
			}
			if gt.Enqueue(g) {
				t.Fatalf("step %d: Enqueue(%d) = true for asserted line", step, g)
			}
			continue
		}
		if gt.Pending() != nwait {
			t.Fatalf("step %d: Pending = %d, want %d", step, gt.Pending(), nwait)
		}
		snap := make([]int, 0, nwait)
		for id := 1; id <= n; id++ {
			if waiting[id] {
				snap = append(snap, id)
			}
		}
		out := sim.Arbitrate(snap)
		for out.Repass {
			out = sim.Arbitrate(snap)
		}
		w := out.Winner
		// Hops cover the winner's path: consecutive levels from the
		// root, at most the tree depth (less in lopsided trees when a
		// shallow cluster wins).
		hops := sim.LastHops()
		if len(hops) < 1 || len(hops) > spec.Depth() {
			t.Fatalf("step %d: %d hops for depth-%d tree", step, len(hops), spec.Depth())
		}
		for lvl, h := range hops {
			if h.Level != lvl {
				t.Fatalf("step %d: hop %d at level %d, want root-first order", step, lvl, h.Level)
			}
			if h.LineUp > now {
				t.Fatalf("step %d: hop level %d line-up %v after resolve %v", step, lvl, h.LineUp, now)
			}
		}
		now += 1
		sim.OnServiceStart(w, now)
		gw := gt.Resolve()
		if gw != w {
			t.Fatalf("step %d (grant %d): faces disagree: sim %d, grant %d", step, grants, w, gw)
		}
		if !waiting[w] {
			t.Fatalf("step %d: granted non-waiting agent %d", step, w)
		}
		waiting[w] = false
		nwait--
		grants++
	}
	if grants == 0 {
		t.Fatal("history produced no grants")
	}
}

func TestFacesAgree(t *testing.T) {
	specs := map[string]*Spec{
		"flat-RR1":      {Protocol: "RR1", Agents: 16},
		"flat-RR3":      {Protocol: "RR3", Agents: 16},
		"flat-FCFS2":    {Protocol: "FCFS2", Agents: 16},
		"8x4-RR1-FCFS2": mustUniform(t, []int{8, 4}, []string{"RR1", "FCFS2"}),
		"4x4-FCFS1-RR1": mustUniform(t, []int{4, 4}, []string{"FCFS1", "RR1"}),
		"4x2x2-FP-RR1-FCFS1": mustUniform(t, []int{4, 2, 2},
			[]string{"FP", "RR1", "FCFS1"}),
		"4x4-RR3-RR1": mustUniform(t, []int{4, 4}, []string{"RR3", "RR1"}),
		"root-RR3": {Protocol: "RR3", Children: []Spec{
			{Protocol: "RR1", Agents: 3}, {Protocol: "FCFS2", Agents: 5},
			{Protocol: "FP", Agents: 8}}},
		"lopsided": {Protocol: "FCFS2", Children: []Spec{
			{Protocol: "RR1", Agents: 1},
			{Protocol: "FCFS1", Children: []Spec{
				{Protocol: "RR1", Agents: 7}, {Protocol: "FP", Agents: 2}}}}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				drive(t, spec, seed, 3000)
			}
		})
	}
}

// TestDepth1DelegatesExactly pins the refactor's safety net at the
// protocol level: a single-leaf tree must produce the same winner
// sequence as a bare protocol instance under identical histories
// (bussim's equivalence test extends this to whole-run bit-identity).
func TestDepth1DelegatesExactly(t *testing.T) {
	for _, proto := range []string{"FP", "RR1", "RR2", "RR3", "FCFS1", "FCFS2"} {
		t.Run(proto, func(t *testing.T) {
			const n = 12
			tree, err := NewSimTree(&Spec{Protocol: proto, Agents: n})
			if err != nil {
				t.Fatalf("NewSimTree: %v", err)
			}
			if tree.Name() != proto {
				t.Fatalf("Name = %q, want %q", tree.Name(), proto)
			}
			factory, err := core.ByName(proto)
			if err != nil {
				t.Fatal(err)
			}
			flat := factory(n)
			src := rng.New(7)
			waiting := map[int]bool{}
			now := 0.0
			for step := 0; step < 2000; step++ {
				now += 1
				if len(waiting) == 0 || (len(waiting) < n && src.Float64() < 0.55) {
					g := 1 + src.Intn(n)
					for waiting[g] {
						g = 1 + src.Intn(n)
					}
					waiting[g] = true
					tree.OnRequest(g, now)
					flat.OnRequest(g, now)
					continue
				}
				snap := make([]int, 0, len(waiting))
				for id := range waiting {
					snap = append(snap, id)
				}
				sort.Ints(snap)
				to := tree.Arbitrate(snap)
				fo := flat.Arbitrate(snap)
				if to != fo {
					t.Fatalf("step %d: tree %+v, flat %+v", step, to, fo)
				}
				if to.Repass {
					continue
				}
				now += 1
				tree.OnServiceStart(to.Winner, now)
				flat.OnServiceStart(to.Winner, now)
				delete(waiting, to.Winner)
			}
		})
	}
}

// TestTreeAllocFree pins the acceptance criterion: steady-state
// serving of a 1024-agent tree — the grant adapter over a 32x32
// SimTree — allocates nothing.
func TestTreeAllocFree(t *testing.T) {
	spec := mustUniform(t, []int{32, 32}, []string{"RR1", "FCFS2"})
	tree, err := NewSimTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	gt := grant.New(tree)
	n := spec.TotalAgents()
	cycle := func() {
		for g := 1; g <= n; g += 7 {
			gt.Enqueue(g)
		}
		for gt.Pending() > 0 {
			if gt.Resolve() == 0 {
				t.Fatal("Resolve = 0 with pending agents")
			}
		}
	}
	cycle() // warm scratch buffers
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Errorf("steady-state tree cycle allocates %v per run, want 0", allocs)
	}
}

// TestGrantTreeRepasses pins that a served tree reports every RR3
// empty pass, at any level, through the adapter's repass count.
func TestGrantTreeRepasses(t *testing.T) {
	spec := mustUniform(t, []int{4, 2}, []string{"RR3", "RR3"})
	tree, err := NewSimTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	gt := grant.New(tree)
	gt.Enqueue(1)
	gt.Enqueue(5)
	// Fresh RR3 registers hold 0, so the first resolution at every
	// level on the winning path is an empty pass.
	if w := gt.Resolve(); w == 0 {
		t.Fatal("Resolve = 0 with pending agents")
	}
	if got := gt.Repasses(); got < 2 {
		t.Errorf("Repasses = %d, want at least 2 (root and winning leaf)", got)
	}
}
