package core

import (
	"fmt"
	"testing"

	"busarb/internal/contention"
	"busarb/internal/ident"
	"busarb/internal/rng"
)

// The protocols' Arbitrate methods skip the encode pass: FP, RR1 and
// RR3 are boundary lookups on the sorted waiting list, FCFS1 and FCFS2
// the bit-plane counter tournament of the bitarb kernel. The settle
// oracle pins them to the model they stand for: every competitor
// applies its composite arbitration number (the protocol's ident
// layout over its own registers: RR bit, inhibit set, counters) to the
// boolean wired-OR lines of internal/contention, and the settled
// winner must be Arbitrate's.

// settleProtocols are the protocols with a kernel specialization.
var settleProtocols = []string{"FP", "RR1", "RR3", "FCFS1", "FCFS2"}

// settleEncoding returns p's layout and a reader of agent id's live
// arbitration number; ok is false for an agent inhibited from
// competing (RR3 at or above the previous winner).
func settleEncoding(t testing.TB, p Protocol) (ident.Layout, func(id int) (num ident.Number, ok bool)) {
	t.Helper()
	switch p := p.(type) {
	case *FixedPriority:
		return p.layout, func(id int) (ident.Number, bool) { return ident.Number{Static: id}, true }
	case *RR1:
		return p.layout, func(id int) (ident.Number, bool) {
			return ident.Number{Static: id, RR: id < p.lastWinner}, true
		}
	case *RR3:
		return p.layout, func(id int) (ident.Number, bool) { return ident.Number{Static: id}, id < p.lastWinner }
	case *FCFS1:
		return p.layout, func(id int) (ident.Number, bool) {
			return ident.Number{Static: id, Counter: p.ctr.Get(id)}, true
		}
	case *FCFS2:
		return p.layout, func(id int) (ident.Number, bool) {
			return ident.Number{Static: id, Counter: p.ctr.Get(id)}, true
		}
	}
	t.Fatalf("no settle encoding for %s", p.Name())
	return ident.Layout{}, nil
}

// checkSettleHistory replays the history ops encodes through the
// named protocol at n agents, the way bussim drives it, and requires
// every arbitration pass to match contention.RunSettle over the
// protocol's encoded state: the same winner, and an RR3 repass
// exactly when the settled pass is empty. ops is read two bytes per
// event: the first byte's low two bits pick a grant (0), an arrival
// sharing the previous arrival's instant (1, FCFS2's a-incr window)
// or a fresh arrival (2, 3); the remaining 14 bits pick the arriving
// agent. Arrivals of an already-waiting agent are skipped, and the
// waiting set is drained at the end. It returns the grant and repass
// counts.
func checkSettleHistory(t testing.TB, name string, n int, ops []byte) (grants, repasses int) {
	t.Helper()
	f, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := f(n)
	layout, number := settleEncoding(t, p)
	// Identities drive the line bank directly, so it needs n+1 driver
	// slots (identity 0 is reserved, §2.1).
	arb := contention.New(layout.TotalBits(), n+1)
	waiting := make([]bool, n+1)
	nwait := 0
	now := 0.0
	grant := func() {
		ids := make([]int, 0, nwait)
		for id := 1; id <= n; id++ {
			if waiting[id] {
				ids = append(ids, id)
			}
		}
		for pass := 0; ; pass++ {
			var comps []contention.Competitor
			for _, id := range ids {
				if num, ok := number(id); ok {
					comps = append(comps, contention.Competitor{Agent: id, Number: layout.Encode(num)})
				}
			}
			res := arb.RunSettle(comps)
			out := p.Arbitrate(ids)
			if res.Winner < 0 {
				if !out.Repass || pass > 0 {
					t.Fatalf("%s n=%d grant %d pass %d: settle is empty, Arbitrate = %+v", name, n, grants, pass, out)
				}
				repasses++
				continue
			}
			if want := comps[res.Winner].Agent; out.Repass || out.Winner != want {
				t.Fatalf("%s n=%d grant %d pass %d: Arbitrate = %+v, settle winner %d", name, n, grants, pass, out, want)
			}
			now++
			p.OnServiceStart(out.Winner, now)
			waiting[out.Winner] = false
			nwait--
			grants++
			return
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		kind, val := ops[i]&3, int(ops[i]>>2)<<8|int(ops[i+1])
		if kind == 0 {
			if nwait > 0 {
				grant()
			}
			continue
		}
		id := 1 + val%n
		if waiting[id] {
			continue
		}
		if kind != 1 {
			now++
		}
		waiting[id] = true
		nwait++
		p.OnRequest(id, now)
	}
	for nwait > 0 {
		grant()
	}
	return grants, repasses
}

// TestKernelMatchesSettleOracle replays random histories through each
// kernel-specialized protocol at agent counts straddling the 64-bit
// word boundaries and reaching kernel scale.
func TestKernelMatchesSettleOracle(t *testing.T) {
	for _, name := range settleProtocols {
		for _, n := range []int{1, 2, 5, 63, 64, 65, 130, 1024} {
			if n > 200 && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				events := 400
				if n > 200 {
					events = 1200 // enough churn to wrap lastWinner and counters
				}
				src := rng.New(uint64(n)*1315423911 + uint64(len(name)))
				ops := make([]byte, 2*events)
				for i := 0; i < len(ops); i += 2 {
					// One grant per three events; the rest are arrivals,
					// a quarter of them sharing an a-incr instant.
					kind := byte(2 + src.Intn(2))
					switch {
					case src.Intn(3) == 0:
						kind = 0
					case src.Intn(4) == 0:
						kind = 1
					}
					val := src.Intn(1 << 14)
					ops[i] = kind | byte(val>>8)<<2
					ops[i+1] = byte(val)
				}
				grants, repasses := checkSettleHistory(t, name, n, ops)
				if grants < events/8 {
					t.Fatalf("history exercised only %d grants", grants)
				}
				if name == "RR3" && n > 1 && repasses == 0 {
					t.Fatal("RR3 history never took an empty pass")
				}
			})
		}
	}
}

// FuzzProtocolMatchesSettle is TestKernelMatchesSettleOracle over
// arbitrary histories, protocols and agent counts.
func FuzzProtocolMatchesSettle(f *testing.F) {
	f.Add(uint8(0), uint16(5), []byte{2, 3, 2, 1, 0, 0, 3, 4, 0, 0})
	f.Add(uint8(2), uint16(64), []byte{2, 63, 1, 10, 0, 0, 2, 64, 0, 0, 0, 0})
	f.Add(uint8(4), uint16(65), []byte{2, 1, 1, 2, 1, 3, 2, 64, 0, 0, 6, 0})
	f.Fuzz(func(t *testing.T, proto uint8, n uint16, ops []byte) {
		checkSettleHistory(t, settleProtocols[int(proto)%len(settleProtocols)], 1+int(n)%1024, ops)
	})
}
