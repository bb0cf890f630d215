package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"busarb"
	"busarb/client"
	"busarb/internal/arbd"
	"busarb/internal/arbd/cluster"
	"busarb/internal/arbd/codec"
	"busarb/internal/grant"
)

// The layer ladder of the traced run. Every rung calls one layer from
// outside through its public entry point, with spans recorded around
// the calls, so each layer is measured alone and as its cost over the
// layer below: kernel -> grant scheduler -> codec -> loopback floor ->
// in-process daemon -> binary -> forward hop -> HTTP, then one
// saturated run for the daemon's counters. The ladder is the same in
// every workload's traced run.

// rungTime bounds each timed microloop and each serving cycle rung.
const rungTime = 300 * time.Millisecond

// satRungTime outlasts the daemon's default 5s metrics window, so the
// rung sees one closed window of server-side waits.
const satRungTime = 5500 * time.Millisecond

func ladder(seed uint64, tr *tracer) (*report, error) {
	rep := newReport()
	steps := []func(uint64, *tracer, *report) error{
		rungTables, rungBussim, rungCore, rungGrant, rungCodec,
		rungServing, rungCluster, rungSaturated,
	}
	// Each rung counts as one attempted operation, plus every acquire
	// of the saturated rung.
	for _, step := range steps {
		rep.attempted++
		if err := step(seed, tr, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// rungTables times one pass of the five facade table calls.
func rungTables(seed uint64, tr *tracer, rep *report) error {
	if _, err := runPass(seed, tr); err != nil {
		return err
	}
	sum := tr.summary()
	for _, name := range tableSpans {
		rep.set("experiment.table_s."+name, "s", sum["experiment.table_s."+name].P50.Seconds())
	}
	return nil
}

// rungBussim runs the saturated n=10 RR1 bus with an event counter as
// its observer: events per run, and host time per event.
func rungBussim(seed uint64, tr *tracer, rep *report) error {
	var perEvent []float64
	var events int64
	for i := 0; i < 5; i++ {
		var ctr busarb.EventCounter
		cfg := busarb.SimConfig{Protocol: busarb.MustProtocol("RR1"), Seed: seed,
			Batches: paperOpts.Batches, BatchSize: paperOpts.BatchSize, Observer: &ctr}
		busarb.EqualWorkload(10, 2.5, 1.0).Apply(&cfg)
		if err := cfg.Validate(); err != nil {
			return err
		}
		sp := tr.begin("bussim.simulate", -1, 0)
		start := time.Now()
		busarb.Simulate(cfg)
		took := time.Since(start)
		tr.end(sp)
		if ctr.Total == 0 {
			return fmt.Errorf("bussim: the observer saw no events")
		}
		events = ctr.Total
		perEvent = append(perEvent, float64(took)/float64(ctr.Total))
	}
	rep.set("bussim.events", "count", float64(events))
	rep.set("bussim.ns_per_event", "ns", median(perEvent))
	return nil
}

// microloop runs body in batches of k calls for about rungTime, one
// span per batch, and returns the median ns per call.
func microloop(tr *tracer, name string, k int, body func()) float64 {
	var perCall []float64
	deadline := time.Now().Add(rungTime)
	for b := 0; b < 5 || (time.Now().Before(deadline) && b < 200); b++ {
		sp := tr.begin(name, -1, 0)
		start := time.Now()
		for i := 0; i < k; i++ {
			body()
		}
		took := time.Since(start)
		tr.end(sp)
		perCall = append(perCall, float64(took)/float64(k))
	}
	return median(perCall)
}

// rungCore times the paper protocols' Arbitrate over a fixed, full
// waiting set, with the service-start and re-request bookkeeping the
// simulator performs around every arbitration.
func rungCore(_ uint64, tr *tracer, rep *report) error {
	for _, n := range []int{10, 1024} {
		waiting := make([]int, n)
		for i := range waiting {
			waiting[i] = i + 1
		}
		k := 20000 / n
		if k < 20 {
			k = 20
		}
		for _, name := range []string{"FP", "RR1", "FCFS2"} {
			p, err := busarb.NewProtocol(name, n)
			if err != nil {
				return err
			}
			for _, id := range waiting {
				p.OnRequest(id, 0)
			}
			now := 0.0
			ns := microloop(tr, fmt.Sprintf("core.arbitrate.%s.n%d", name, n), k, func() {
				out := p.Arbitrate(waiting)
				now++
				if out.Winner > 0 {
					p.OnServiceStart(out.Winner, now)
					p.OnRequest(out.Winner, now)
				}
			})
			rep.set(fmt.Sprintf("core.arbitrate_ns.%s.n%d", name, n), "ns", ns)
		}
	}
	return nil
}

// rungGrant times the serving schedulers the way a saturated shard
// drives them: every line re-asserted, then one resolution.
func rungGrant(_ uint64, tr *tracer, rep *report) error {
	for _, name := range satProtocols {
		f, err := grant.ByName(name)
		if err != nil {
			return err
		}
		g := f(satAgents)
		var won int
		ns := microloop(tr, "grant.resolve."+name, 1000, func() {
			for a := 1; a <= satAgents; a++ {
				g.Enqueue(a)
			}
			won = g.Resolve()
		})
		if won == 0 {
			return fmt.Errorf("grant %s: resolved no winner over a full set", name)
		}
		rep.set("grant.resolve_ns."+name, "ns", ns)
	}
	return nil
}

// grantFrame and acquireFrame are the two frames of one binary cycle.
func acquireFrame() codec.Frame {
	return codec.Frame{Type: codec.TAcquire, Corr: 1, Agent: 1,
		TimeoutNS: int64(10 * time.Second), Resource: []byte("bus")}
}

func grantFrame() codec.Frame {
	return codec.Frame{Type: codec.TGrant, Corr: 1, Agent: 1,
		TTLNS: int64(30 * time.Second), Resource: []byte("bus"), Token: []byte("bus-1-123456")}
}

// rungCodec times encode+decode of an Acquire and its Grant.
func rungCodec(_ uint64, tr *tracer, rep *report) error {
	acq, gr := acquireFrame(), grantFrame()
	buf := make([]byte, 0, codec.MaxFrame)
	var out codec.Frame
	var err error
	ns := microloop(tr, "codec.roundtrip", 10000, func() {
		for _, f := range []*codec.Frame{&acq, &gr} {
			if buf, err = codec.Append(buf[:0], f); err != nil {
				return
			}
			if _, err = codec.Decode(buf, &out); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	rep.set("codec.roundtrip_ns", "ns", ns)
	return nil
}

// cycles runs acquire+release cycles through do for about rungTime
// (at least 50) and returns the median cycle in microseconds.
func cycles(tr *tracer, name string, do func() error) (float64, error) {
	var took []time.Duration
	deadline := time.Now().Add(rungTime)
	for i := 0; i < 50 || time.Now().Before(deadline); i++ {
		sp := tr.begin(name, -1, tr.request())
		start := time.Now()
		err := do()
		took = append(took, time.Since(start))
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return durQuantile(took, 0.5), nil
}

// clientCycle is one acquire+release of agent 1 on resource "bus".
func clientCycle(c *client.Client) func() error {
	ctx := context.Background()
	return func() error {
		lease, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{Timeout: 10 * time.Second})
		if err != nil {
			return err
		}
		return c.Release(ctx, lease)
	}
}

// loopbackRTT echoes a Grant-sized frame over raw loopback TCP: the
// floor under every networked rung.
func loopbackRTT(tr *tracer) (float64, error) {
	gr := grantFrame()
	wire, err := codec.Append(nil, &gr)
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		_, err = io.Copy(conn, conn)
		echoed <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-echoed
		return 0, err
	}
	back := make([]byte, len(wire))
	us, err := cycles(tr, "net.loopback_rtt", func() error {
		if _, err := conn.Write(wire); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, back)
		return err
	})
	conn.Close()
	ln.Close()
	if eerr := <-echoed; err == nil && eerr != nil {
		err = eerr
	}
	return us, err
}

// rungServing climbs loopback floor -> in-process daemon -> binary ->
// HTTP, one uncontended agent on an RR1 resource each time.
func rungServing(_ uint64, tr *tracer, rep *report) error {
	floor, err := loopbackRTT(tr)
	if err != nil {
		return err
	}
	rep.set("net.loopback_rtt_us", "us", floor)

	d, err := arbd.New(arbd.Config{Resources: idleResources})
	if err != nil {
		return err
	}
	ctx := context.Background()
	inproc, err := cycles(tr, "arbd.inproc_cycle", func() error {
		lease, serr := d.Acquire(ctx, "bus", 1, 10*time.Second, 0)
		if serr != nil {
			return serr
		}
		if serr := d.Release("bus", lease.Token); serr != nil {
			return serr
		}
		return nil
	})
	d.Close()
	if err != nil {
		return err
	}
	rep.set("arbd.inproc_cycle_us", "us", inproc)

	s, err := startServer(idleResources)
	if err != nil {
		return err
	}
	bin, err := cycles(tr, "binary.cycle", clientCycle(s.c))
	s.close()
	if err != nil {
		return err
	}
	rep.set("binary.cycle_us", "us", bin)
	rep.set("binary.overhead_us", "us", bin-inproc-floor)

	httpUS, err := httpCycle(tr)
	if err != nil {
		return err
	}
	rep.set("http.cycle_us", "us", httpUS)
	return nil
}

// httpCycle times the same cycle over the daemon's HTTP surface.
func httpCycle(tr *tracer) (float64, error) {
	d, err := arbd.New(arbd.Config{Resources: idleResources})
	if err != nil {
		return 0, err
	}
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: d.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := client.Dial("http://" + ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return cycles(tr, "http.cycle", clientCycle(c))
}

// rungCluster runs a two-node in-process cluster and times the cycle
// through the resource's owner and through the other node, whose
// binary server forwards it: the difference is the forward hop.
func rungCluster(seed uint64, tr *tracer, rep *report) error {
	names := []string{"a", "b"}
	lns := make([]net.Listener, len(names))
	members := make([]cluster.Member, len(names))
	for i, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
		members[i] = cluster.Member{Name: name, Addr: "tcp://" + ln.Addr().String()}
	}
	nodes := make([]*cluster.Node, len(names))
	served := make(chan error, len(names))
	for i, name := range names {
		n, err := cluster.New(cluster.Config{Self: name, Members: members, Resources: idleResources, Seed: seed})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			for _, m := range nodes[:i] {
				m.Close()
				<-served
			}
			return err
		}
		nodes[i] = n
		go func(n *cluster.Node, ln net.Listener) { served <- n.Serve(ln) }(n, lns[i])
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		for range nodes {
			<-served
		}
	}()
	owner, other := 0, 1
	if !nodes[0].Owns("bus") {
		owner, other = 1, 0
	}
	var hop [2]float64
	for i, idx := range []int{owner, other} {
		c, err := client.Dial(members[idx].Addr)
		if err != nil {
			return err
		}
		hop[i], err = cycles(tr, []string{"cluster.direct_cycle", "cluster.forwarded_cycle"}[i], clientCycle(c))
		c.Close()
		if err != nil {
			return err
		}
	}
	fm := nodes[other].ForwardMetrics()
	if fm.Forwards == 0 {
		return fmt.Errorf("cluster: the non-owner forwarded nothing")
	}
	rep.set("cluster.forward_hop_us", "us", hop[1]-hop[0])
	rep.set("cluster.forwards", "count", float64(fm.Forwards))
	return nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rungSaturated runs the serve-saturated load long enough to close one
// daemon metrics window, and reads the daemon's and the runtime's
// counters around it.
func rungSaturated(seed uint64, tr *tracer, rep *report) error {
	var always atomic.Bool
	always.Store(true)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	s, lr, ratios, err := satRun(seed, "ladder.saturated", satRungTime, &always, tr)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	if s == nil {
		return err
	}
	defer s.close()
	rep.attempted += lr.t.Attempted
	rep.failed += lr.t.failed()
	rep.set("client.timeouts", "count", float64(lr.t.Timeouts))
	rep.set("client.overloads", "count", float64(lr.t.Overloads))
	rep.set("client.errors", "count", float64(lr.t.Errors+lr.t.BadRel))
	if err != nil {
		return err
	}
	var arbs, repasses, grants int64
	var waits []float64
	for _, rm := range s.d.Metrics() {
		arbs += rm.Arbitrations
		repasses += rm.Repasses
		for _, a := range rm.Agents {
			grants += a.Grants
			if a.WaitP50 > 0 {
				waits = append(waits, a.WaitP50*1e6)
			}
		}
	}
	if arbs == 0 {
		return errors.New("saturated rung: the daemon counted no arbitrations")
	}
	rep.set("arbd.arbitrations", "count", float64(arbs))
	rep.set("arbd.repasses", "count", float64(repasses))
	rep.set("arbd.grants_per_arbitration", "ratio", float64(grants)/float64(arbs))
	rep.set("arbd.server_wait_p50_us", "us", median(waits))
	rep.set("client.acquire_p50_us", "us", quantile(lr.acq[1], 0.5))
	rep.set("arbd.fairness_ratio", "ratio", min(ratios[0], ratios[1]))
	rep.set("runtime.cpu_us_per_grant", "us", float64(cpu1-cpu0)/float64(time.Microsecond)/float64(grants))
	rep.set("runtime.alloc_bytes_per_op", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(grants))
	rep.set("runtime.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	return nil
}
