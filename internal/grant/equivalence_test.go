package grant

import (
	"testing"

	"busarb/internal/core"
	"busarb/internal/rng"
)

// The serving face must drive a protocol exactly the way
// internal/bussim does — OnRequest per arrival, Arbitrate over the
// ascending waiting set (again on a repass), OnServiceStart for the
// winner — since that is what lets arbd claim the simulators' fairness
// results. coreDriver is that calling convention written out directly,
// with the waiting set kept as a []bool rather than the scheduler's
// request bitmap, and strictly increasing synthetic times (distinct
// wall-clock arrivals: over the network no two requests share FCFS2's
// a-incr sensing window).
type coreDriver struct {
	proto    core.Protocol
	pending  []bool
	npend    int
	now      float64
	repasses int64
	waiting  []int
}

func newCoreDriver(f core.Factory, n int) *coreDriver {
	return &coreDriver{proto: f(n), pending: make([]bool, n+1)}
}

func (d *coreDriver) tick() float64 { d.now++; return d.now }

func (d *coreDriver) enqueue(id int) {
	if d.pending[id] {
		return
	}
	d.pending[id] = true
	d.npend++
	d.proto.OnRequest(id, d.tick())
}

func (d *coreDriver) resolve() int {
	if d.npend == 0 {
		return 0
	}
	d.waiting = d.waiting[:0]
	for id := 1; id < len(d.pending); id++ {
		if d.pending[id] {
			d.waiting = append(d.waiting, id)
		}
	}
	out := d.proto.Arbitrate(d.waiting)
	for out.Repass {
		// bussim re-snapshots the (unchanged) request lines and runs a
		// fresh pass immediately.
		d.repasses++
		out = d.proto.Arbitrate(d.waiting)
	}
	w := out.Winner
	d.proto.OnServiceStart(w, d.tick())
	d.pending[w] = false
	d.npend--
	return w
}

// TestSchedulerMatchesSimulatorProtocol cross-checks the scheduler
// over every core protocol against the simulator's calling convention
// on randomized arrival traces: random interleavings of arrivals
// (random idle agent) and resolutions, over several agent counts and
// seeds.
func TestSchedulerMatchesSimulatorProtocol(t *testing.T) {
	const ops = 2000
	for _, name := range core.Names() {
		cf, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 5, 8, 16} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(name, func(t *testing.T) {
					src := rng.New(seed*1000 + uint64(n))
					sched := New(cf(n))
					driver := newCoreDriver(cf, n)
					grants := 0
					for op := 0; op < ops; op++ {
						// Bias toward arrivals so resolutions usually see
						// contention; resolve anyway when everyone is
						// already pending.
						if (src.Float64() < 0.6 && sched.Pending() < n) || sched.Pending() == 0 {
							id := 1 + src.Intn(n)
							for driver.pending[id] {
								id = 1 + src.Intn(n)
							}
							driver.enqueue(id)
							if !sched.Enqueue(id) {
								t.Fatalf("op %d: Enqueue(%d) dup against fresh arrival", op, id)
							}
							continue
						}
						want := driver.resolve()
						got := sched.Resolve()
						if got != want {
							t.Fatalf("op %d (grant %d): scheduler granted %d, simulator protocol granted %d",
								op, grants, got, want)
						}
						grants++
					}
					if grants < ops/4 {
						t.Fatalf("trace exercised only %d grants", grants)
					}
					if sched.Repasses() != driver.repasses {
						t.Errorf("repasses: scheduler %d, simulator %d", sched.Repasses(), driver.repasses)
					}
				})
			}
		}
	}
}
