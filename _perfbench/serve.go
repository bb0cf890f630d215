package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"busarb/client"
	"busarb/internal/arbd"
)

// The serving workloads drive an in-process arbd daemon over the
// binary protocol on loopback, through the public client package.
// Every agent is a closed loop: acquire, release at once, repeat — no
// think time and no hold. The daemon is configured with Name, Agents
// and Protocol only, so whatever bus-cycle mechanism the daemon uses
// by default is what gets measured.

// server is a daemon behind a binary listener, with one client.
type server struct {
	d      *arbd.Daemon
	bs     *arbd.BinaryServer
	served chan error // Serve's return
	c      *client.Client
}

// startServer builds the daemon, starts its binary listener on a free
// loopback port, and dials one client to it.
func startServer(resources []arbd.ResourceConfig) (*server, error) {
	d, err := arbd.New(arbd.Config{Resources: resources})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	s := &server{d: d, bs: arbd.NewBinaryServer(d), served: make(chan error, 1)}
	go func() { s.served <- s.bs.Serve(ln) }()
	c, err := client.Dial("tcp://" + ln.Addr().String())
	if err != nil {
		s.close()
		return nil, err
	}
	s.c = c
	return s, nil
}

// close stops the client, the listener and the daemon, and waits for
// the listener goroutine to return.
func (s *server) close() {
	if s.c != nil {
		s.c.Close()
	}
	s.bs.Close()
	<-s.served
	s.d.Close()
}

// daemonGrants sums the daemon's own grant counters.
func (s *server) daemonGrants() int64 {
	var n int64
	for _, rm := range s.d.Metrics() {
		for _, a := range rm.Agents {
			n += a.Grants
		}
	}
	return n
}

var (
	idleResources = []arbd.ResourceConfig{{Name: "bus", Agents: 1, Protocol: "RR1"}}
	satProtocols  = []string{"RR1", "FCFS2", "FP"}
)

const satAgents = 16

func satResources() []arbd.ResourceConfig {
	rcs := make([]arbd.ResourceConfig, len(satProtocols))
	for i, p := range satProtocols {
		rcs[i] = arbd.ResourceConfig{Name: "bus-" + p, Agents: satAgents, Protocol: p}
	}
	return rcs
}

// serveSetup times one fresh set-up: daemon, listener, dial, and the
// first grant (released again before the clock stops).
func serveSetup(resources []arbd.ResourceConfig) (time.Duration, error) {
	start := time.Now()
	s, err := startServer(resources)
	if err != nil {
		return 0, err
	}
	defer s.close()
	ctx := context.Background()
	lease, err := s.c.Acquire(ctx, resources[0].Name, 1, client.AcquireOptions{Timeout: 10 * time.Second})
	if err != nil {
		return 0, fmt.Errorf("first grant: %w", err)
	}
	if err := s.c.Release(ctx, lease); err != nil {
		return 0, fmt.Errorf("first release: %w", err)
	}
	return time.Since(start), nil
}

func idleSetup(uint64) (time.Duration, error) { return serveSetup(idleResources) }
func satSetup(uint64) (time.Duration, error)  { return serveSetup(satResources()) }

// loadSpec is one closed-loop serving run.
type loadSpec struct {
	resources []string // one per agent group
	agents    int      // agents per resource
	seed      uint64   // permutes the order the agents start in
	label     string   // span name prefix
	warm      time.Duration
	run       time.Duration
	// traced, when non-nil, says per operation whether to record spans
	// into tr; its value is sampled when the operation starts.
	traced *atomic.Bool
	tr     *tracer
}

// durLog collects durations in fixed-size chunks, so a long run's
// memory grows in even steps; slice doubling, whose timing varied from
// run to run, moved the peak resident set by several percent.
type durLog struct{ chunks [][]time.Duration }

const durChunk = 512

func (l *durLog) add(d time.Duration) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == durChunk {
		l.chunks = append(l.chunks, make([]time.Duration, 0, durChunk))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], d)
}

func (l *durLog) len() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// sortedMicros merges logs into one sorted slice of microseconds.
func sortedMicros(logs []*durLog) []float64 {
	n := 0
	for _, l := range logs {
		n += l.len()
	}
	us := make([]float64, 0, n)
	for _, l := range logs {
		for _, c := range l.chunks {
			for _, d := range c {
				us = append(us, float64(d)/float64(time.Microsecond))
			}
		}
	}
	sort.Float64s(us)
	return us
}

// samples holds one agent's timings, split by whether the operation
// was traced (index 1) or not (index 0).
type samples struct {
	acq, rel [2]durLog
	grants   int64   // grants inside the measured window
	buckets  []int64 // those grants by rateBucket of the window
	t        tally
}

// loadResult is a merged closed-loop run; acq and rel are sorted
// microseconds.
type loadResult struct {
	acq, rel [2][]float64
	grants   [][]float64 // [resource][agent-1] grants in the window
	buckets  []float64   // grants per rateBucket of the window
	t        tally
}

// runLoad drives spec against s: one goroutine per (resource, agent),
// all multiplexed over s's single client connection. Operations that
// start in the warm-up or end after the window are not timed; every
// operation is accounted for.
func runLoad(s *server, spec loadSpec) loadResult {
	ctx, cancel := context.WithTimeout(context.Background(), 2*(spec.warm+spec.run)+60*time.Second)
	defer cancel()
	// The client timeout never fires in a healthy run: FP's starved
	// agents hold one acquire for the whole window and are granted in
	// the drain after it.
	opts := client.AcquireOptions{Timeout: spec.warm + spec.run + 30*time.Second}
	var stop atomic.Bool
	per := make([]samples, len(spec.resources)*spec.agents)
	nb := max(1, int(spec.run/rateBucket))
	for g := range per {
		per[g].buckets = make([]int64, nb)
	}
	var wg sync.WaitGroup
	start := time.Now()
	from, until := start.Add(spec.warm), start.Add(spec.warm+spec.run)
	for _, g := range rand.New(rand.NewPCG(spec.seed, 0)).Perm(len(per)) {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, agent := spec.resources[g/spec.agents], g%spec.agents+1
			sm := &per[g]
			for !stop.Load() {
				mode := 0
				if spec.traced != nil && spec.traced.Load() {
					mode = 1
				}
				tr := spec.tr
				if mode == 0 {
					tr = nil
				}
				req := tr.request()
				root := tr.begin(spec.label+".cycle", -1, req)
				sp := tr.begin(spec.label+".acquire", root, req)
				t0 := time.Now()
				lease, err := s.c.Acquire(ctx, res, agent, opts)
				t1 := time.Now()
				tr.end(sp)
				sm.t.Attempted++
				if err != nil {
					switch {
					case errors.Is(err, client.ErrDeadline):
						sm.t.Timeouts++
					case errors.Is(err, client.ErrOverload):
						sm.t.Overloads++
					default:
						sm.t.Errors++
					}
					tr.end(root)
					return
				}
				sm.t.Granted++
				sp = tr.begin(spec.label+".release", root, req)
				err = s.c.Release(ctx, lease)
				t2 := time.Now()
				tr.end(sp)
				tr.end(root)
				if err != nil {
					sm.t.BadRel++
					return
				}
				if !t1.Before(from) && t1.Before(until) {
					sm.grants++
					if b := int(t1.Sub(from) / rateBucket); b < nb {
						sm.buckets[b]++
					}
				}
				if !t0.Before(from) && !t2.After(until) {
					sm.acq[mode].add(t1.Sub(t0))
					sm.rel[mode].add(t2.Sub(t1))
				}
			}
		}(g)
	}
	time.Sleep(time.Until(until))
	stop.Store(true)
	wg.Wait()

	out := loadResult{grants: make([][]float64, len(spec.resources)), buckets: make([]float64, nb)}
	for r := range spec.resources {
		out.grants[r] = make([]float64, spec.agents)
	}
	for m := 0; m < 2; m++ {
		acq, rel := make([]*durLog, len(per)), make([]*durLog, len(per))
		for g := range per {
			acq[g], rel[g] = &per[g].acq[m], &per[g].rel[m]
		}
		out.acq[m], out.rel[m] = sortedMicros(acq), sortedMicros(rel)
	}
	for g := range per {
		sm := &per[g]
		out.grants[g/spec.agents][g%spec.agents] = float64(sm.grants)
		for b, n := range sm.buckets {
			out.buckets[b] += float64(n)
		}
		out.t.add(sm.t)
	}
	return out
}

// merge folds a later run on the same daemon into lr.
func (lr *loadResult) merge(o loadResult) {
	if lr.grants == nil {
		*lr = o
		return
	}
	for m := 0; m < 2; m++ {
		lr.acq[m] = append(lr.acq[m], o.acq[m]...)
		lr.rel[m] = append(lr.rel[m], o.rel[m]...)
		sort.Float64s(lr.acq[m])
		sort.Float64s(lr.rel[m])
	}
	for r := range lr.grants {
		for a := range lr.grants[r] {
			lr.grants[r][a] += o.grants[r][a]
		}
	}
	lr.buckets = append(lr.buckets, o.buckets...)
	lr.t.add(o.t)
}

// serveSegment is the length of one segment of an untraced serving
// window. The window runs as segments, each on a fresh daemon and
// connection with a segmentWarm warm-up of its own, with reference
// bursts (calib.go) before the first segment and after each, while no
// agent runs. Release latency settles into a level per daemon that
// can differ from the next daemon's by 25%, and it drifts with the
// shared host's load from run to run. op2_p50_us is the median over
// segments of each segment's release median, so one run samples two
// dozen daemon levels, scaled by the median of the run's reference
// bursts to host time at nominal speed.
const (
	serveSegment = 1250 * time.Millisecond
	segmentWarm  = 125 * time.Millisecond
	segmentRefs  = 5 // reference bursts between segments
)

// segmented is an untraced serving window run as segments.
type segmented struct {
	lr  loadResult      // all segments merged
	rel []float64       // each segment's release p50, us
	ref []time.Duration // every reference burst
}

// reference runs segmentRefs reference bursts.
func (sg *segmented) reference() {
	for i := 0; i < segmentRefs; i++ {
		sg.ref = append(sg.ref, reference())
	}
}

// hostScale is the run's calibration factor: refNominal over the
// median reference burst.
func (sg *segmented) hostScale() float64 {
	ms := make([]float64, len(sg.ref))
	for i, r := range sg.ref {
		ms[i] = float64(r)
	}
	return hostScale(time.Duration(median(ms)))
}

// segmentedLoad runs spec for about d as segments (serveSegment), each
// on a fresh daemon built from resources, and checks each segment's
// accounting against its daemon.
func segmentedLoad(resources []arbd.ResourceConfig, spec loadSpec, d time.Duration) (segmented, error) {
	var out segmented
	k := max(1, int((d+serveSegment/2)/serveSegment))
	spec.warm, spec.run = segmentWarm, d/time.Duration(k)
	out.reference()
	for i := 0; i < k; i++ {
		s, err := startServer(resources)
		if err != nil {
			return out, err
		}
		lr := runLoad(s, spec)
		err = lr.t.check(s.daemonGrants())
		s.close()
		out.lr.merge(lr)
		if err != nil {
			return out, fmt.Errorf("segment %d: %w", i+1, err)
		}
		if len(lr.rel[0]) == 0 {
			return out, fmt.Errorf("segment %d timed no release", i+1)
		}
		out.rel = append(out.rel, quantile(lr.rel[0], 0.5))
		out.reference()
	}
	return out, nil
}

// rateBucket is the slice of the window throughput is counted over;
// grants_per_s is the median slice's rate, which a host stall of a
// few hundred milliseconds moves by one slice rather than by its share
// of the whole window.
const rateBucket = 250 * time.Millisecond

// grantRate is the median grants per second over the window's slices.
func (lr loadResult) grantRate() float64 {
	return median(lr.buckets) / rateBucket.Seconds()
}

// serveReport turns an untraced segmented run into the end-to-end
// metrics shared by both serving workloads.
func serveReport(rep *report, sg segmented) {
	lr := sg.lr
	acqP50, acqP90, acqP99 := quantile(lr.acq[0], 0.5), quantile(lr.acq[0], 0.9), quantile(lr.acq[0], 0.99)
	relRaw := median(sg.rel)
	relP50 := relRaw * sg.hostScale()
	gps := lr.grantRate()
	rep.attempted, rep.failed = lr.t.Attempted, lr.t.failed()
	rep.set("op_p50_us", "us", acqP50)
	rep.set("op_p90_us", "us", acqP90)
	rep.set("op2_p50_us", "us", relP50)
	rep.set("ops_per_s", "1/s", gps)
	rep.printf("acquire_p50_us=%.1f acquire_p90_us=%.1f acquire_p99_us=%.1f (printed only) over %d timed acquires",
		acqP50, acqP90, acqP99, len(lr.acq[0]))
	rep.printf("calibrated: release_p50_us=%.2f (median over %d segments)", relP50, len(sg.rel))
	rep.printf("uncalibrated: release_p50_us=%.2f (all releases pooled: %.2f); host %.3fx slower than nominal over %d reference bursts",
		relRaw, quantile(lr.rel[0], 0.5), 1/sg.hostScale(), len(sg.ref))
	rep.printf("segments: release_p50_us=%.1f", sg.rel)
	rep.printf("grants_per_s=%.1f failed_frac=%.4g (%d of %d operations)",
		gps, lr.t.failedFrac(), lr.t.failed(), lr.t.Attempted)
}

// warmUp is the untimed start of every traced serving run.
const warmUp = 500 * time.Millisecond

func idleMeasure(_ uint64, d time.Duration) (*report, error) {
	sg, err := segmentedLoad(idleResources, loadSpec{resources: []string{"bus"}, agents: 1, label: "serve-idle"}, d)
	rep := newReport()
	serveReport(rep, sg)
	if err != nil {
		return rep, err
	}
	if len(sg.lr.acq[0]) == 0 {
		return rep, fmt.Errorf("no acquire completed inside the window")
	}
	return rep, nil
}

// checkFairness applies the paper's separation to a saturated run's
// per-agent window grants: RR1 and FCFS2 share evenly, FP starves.
func checkFairness(lr loadResult) ([]float64, error) {
	ratios := make([]float64, len(satProtocols))
	for i := range satProtocols {
		ratios[i] = minMaxRatio(lr.grants[i])
	}
	for i, p := range satProtocols {
		switch {
		case p == "FP" && ratios[i] >= 0.1:
			return ratios, fmt.Errorf("FP worst/best grant ratio %.3f, want < 0.1 (starvation)", ratios[i])
		case p != "FP" && ratios[i] < 0.9:
			return ratios, fmt.Errorf("%s worst/best grant ratio %.3f, want >= 0.9", p, ratios[i])
		}
	}
	return ratios, nil
}

func satResourceNames() []string {
	names := make([]string, len(satProtocols))
	for i, rc := range satResources() {
		names[i] = rc.Name
	}
	return names
}

// satRun is one saturated run on a fresh daemon, with its checks.
func satRun(seed uint64, label string, d time.Duration, traced *atomic.Bool, tr *tracer) (*server, loadResult, []float64, error) {
	s, err := startServer(satResources())
	if err != nil {
		return nil, loadResult{}, nil, err
	}
	lr := runLoad(s, loadSpec{resources: satResourceNames(), agents: satAgents, seed: seed, label: label,
		warm: warmUp, run: d, traced: traced, tr: tr})
	if err := lr.t.check(s.daemonGrants()); err != nil {
		return s, lr, nil, err
	}
	ratios, err := checkFairness(lr)
	return s, lr, ratios, err
}

func satMeasure(seed uint64, d time.Duration) (*report, error) {
	sg, err := segmentedLoad(satResources(), loadSpec{resources: satResourceNames(), agents: satAgents, seed: seed,
		label: "serve-saturated"}, d)
	rep := newReport()
	serveReport(rep, sg)
	if err != nil {
		return rep, err
	}
	ratios, err := checkFairness(sg.lr)
	rep.printf("fairness_ratio=%.4f (min of RR1 %.4f, FCFS2 %.4f); FP %.4f",
		min(ratios[0], ratios[1]), ratios[0], ratios[1], ratios[2])
	return rep, err
}

// toggle flips b every period until stop is closed.
func toggle(b *atomic.Bool, period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			b.Store(!b.Load())
		}
	}
}

// tracedOverhead runs fn with tracing toggled every 250ms and returns
// the traced acquire p50 over the untraced one, less 1.
func tracedOverhead(fn func(traced *atomic.Bool) (loadResult, error)) (float64, error) {
	var traced atomic.Bool
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		toggle(&traced, 250*time.Millisecond, stop)
	}()
	lr, err := fn(&traced)
	close(stop)
	<-done
	if err != nil {
		return 0, err
	}
	if len(lr.acq[0]) == 0 || len(lr.acq[1]) == 0 {
		return 0, fmt.Errorf("traced loop timed too few acquires (%d untraced, %d traced)", len(lr.acq[0]), len(lr.acq[1]))
	}
	return quantile(lr.acq[1], 0.5)/quantile(lr.acq[0], 0.5) - 1, nil
}

func idleOverhead(_ uint64, d time.Duration, tr *tracer) (float64, error) {
	return tracedOverhead(func(traced *atomic.Bool) (loadResult, error) {
		s, err := startServer(idleResources)
		if err != nil {
			return loadResult{}, err
		}
		defer s.close()
		lr := runLoad(s, loadSpec{resources: []string{"bus"}, agents: 1, label: "serve-idle",
			warm: warmUp, run: d, traced: traced, tr: tr})
		return lr, lr.t.check(s.daemonGrants())
	})
}

func satOverhead(seed uint64, d time.Duration, tr *tracer) (float64, error) {
	return tracedOverhead(func(traced *atomic.Bool) (loadResult, error) {
		s, lr, _, err := satRun(seed, "serve-saturated", d, traced, tr)
		if s != nil {
			s.close()
		}
		return lr, err
	})
}
