package main

import (
	"fmt"
	"runtime"
	"time"

	"busarb"
	"busarb/internal/experiment"
)

// The sim-tables workload: a fixed-effort pass over the paper's
// tables through the busarb facade, single-threaded: with Parallel 2 a
// pass spread 0.28-0.55 s on a two-CPU host, sequentially 0.516-0.526 s.
// The n <= 30 tables are where the event loop dominates; Table 4.1 at
// n = 1024 is where the arbitration kernel's width does.

// paperOpts and scaleOpts fix the statistical effort of the two parts.
var (
	paperOpts = busarb.ExperimentOpts{Batches: 10, BatchSize: 1500, Parallel: 1, SeedSet: true}
	scaleOpts = busarb.ExperimentOpts{Batches: 3, BatchSize: 1000, Parallel: 1, SeedSet: true}
)

// goldenDigest is the digest of every row of one pass at defaultSeed,
// recorded on amd64. A simulator change must keep it bit-identical.
// Architectures that fuse multiply-adds may round differently, so
// elsewhere only the within-run determinism check applies.
const goldenDigest = "e26ea19746806017"

// The span names of the five facade table calls; each is also the
// per-layer metric experiment.table_s.<suffix>.
var tableSpans = []string{"t41_10", "t41_30", "t42_10", "t45_10", "t41_1024"}

// paperRequests and scaleRequests count the simulated bus requests
// one pass serves in its measured batches: every table point runs
// Batches x BatchSize of them per protocol column.
var (
	paperRequests = float64(paperOpts.Batches*paperOpts.BatchSize) *
		float64(len(experiment.PaperLoads)*2+len(experiment.PaperLoads)*3+
			len(experiment.PaperLoads)*2+len(experiment.PaperCVs))
	scaleRequests = float64(scaleOpts.Batches*scaleOpts.BatchSize) * float64(len(experiment.PaperLoads)*2)
)

// simPass is one pass's timings, raw and calibrated (see calib.go),
// and its row digest.
type simPass struct {
	paper, scale       time.Duration
	paperCal, scaleCal time.Duration
	digest             string
}

// runPass runs the five tables, checks the paper's separations on
// them, and digests every row.
func runPass(seed uint64, tr *tracer) (simPass, error) {
	po, so := paperOpts, scaleOpts
	po.Seed, so.Seed = seed, seed
	var dg digest
	var t41, t41n30, t41n1024 []experiment.Table41Row
	var t42 []experiment.Table42Row
	var t45 []experiment.Table45Row

	call := func(i int, f func()) {
		s := tr.begin("experiment.table_s."+tableSpans[i], -1, 0)
		f()
		tr.end(s)
	}
	ref0 := reference()
	start := time.Now()
	call(0, func() { t41 = busarb.Table41(10, false, po) })
	call(1, func() { t41n30 = busarb.Table41(30, true, po) })
	call(2, func() { t42 = busarb.Table42(10, po) })
	call(3, func() { t45 = busarb.Table45(10, po) })
	paper := time.Since(start)
	ref1 := reference()
	start = time.Now()
	call(4, func() { t41n1024 = busarb.Table41(1024, false, so) })
	scale := time.Since(start)
	ref2 := reference()

	for _, rows := range [][]experiment.Table41Row{t41, t41n30, t41n1024} {
		for _, r := range rows {
			dg.add(r.Load, r.Lambda, r.RatioRR.Mean, r.RatioRR.HalfW, r.RatioFCFS.Mean, r.RatioFCFS.HalfW)
			if r.RatioAAP != nil {
				dg.add(r.RatioAAP.Mean, r.RatioAAP.HalfW)
			}
		}
	}
	for _, r := range t42 {
		dg.add(r.Load, r.W, r.SDFCFS.Mean, r.SDRR.Mean, r.SDRatio.Mean)
	}
	for _, r := range t45 {
		dg.add(r.CV, r.LoadRatio, r.Ratio.Mean, r.Ratio.HalfW)
	}
	p := simPass{paper: paper, scale: scale,
		paperCal: calibrated(paper, ref0, ref1), scaleCal: calibrated(scale, ref1, ref2),
		digest: dg.sum()}

	// The separations any seed must show at this effort.
	for _, r := range t41 {
		if r.RatioRR.Mean < 0.85 || r.RatioRR.Mean > 1.15 {
			return p, fmt.Errorf("Table 4.1 n=10 load %.2f: RR ratio %.3f outside [0.85, 1.15]", r.Load, r.RatioRR.Mean)
		}
	}
	if w := t42[0].W; w < 1.4 || w > 1.9 {
		return p, fmt.Errorf("Table 4.2 n=10 load %.2f: W = %.3f, want about 1.5-1.7", t42[0].Load, w)
	}
	if r := t45[0].Ratio.Mean; r < 0.45 || r > 0.55 {
		return p, fmt.Errorf("Table 4.5 n=10 CV 0: worst-case RR ratio %.3f, want about 0.5", r)
	}
	return p, nil
}

// checkSeparation runs the saturated n=10 bus under RR1, FCFS2 and
// FP: the first two must share evenly and FP must starve somebody.
func checkSeparation(seed uint64) ([3]float64, error) {
	var ratios [3]float64
	for i, name := range []string{"RR1", "FCFS2", "FP"} {
		cfg := busarb.SimConfig{Protocol: busarb.MustProtocol(name), Seed: seed, Batches: 10, BatchSize: 8000}
		busarb.EqualWorkload(10, 2.5, 1.0).Apply(&cfg)
		if err := cfg.Validate(); err != nil {
			return ratios, err
		}
		res := busarb.Simulate(cfg)
		tp := make([]float64, len(res.AgentThroughput))
		for a, e := range res.AgentThroughput {
			tp[a] = e.Mean
		}
		ratios[i] = minMaxRatio(tp)
	}
	if ratios[0] < 0.9 || ratios[1] < 0.9 {
		return ratios, fmt.Errorf("saturated n=10: RR1 ratio %.3f, FCFS2 ratio %.3f, want both >= 0.9", ratios[0], ratios[1])
	}
	if ratios[2] >= 0.1 {
		return ratios, fmt.Errorf("saturated n=10: FP ratio %.3f, want < 0.1 (starvation)", ratios[2])
	}
	return ratios, nil
}

// simSetup is the time to the first table cell: build every table
// point's configuration through the facade, validate it, and simulate
// the first point of Table 4.1.
func simSetup(seed uint64) (time.Duration, error) {
	start := time.Now()
	rr := busarb.MustProtocol("RR1")
	var first busarb.SimConfig
	for i, load := range experiment.PaperLoads {
		for _, n := range []int{10, 30} {
			cfg := busarb.SimConfig{Protocol: rr, Seed: seed, Batches: paperOpts.Batches, BatchSize: paperOpts.BatchSize}
			busarb.EqualWorkload(n, load, 1.0).Apply(&cfg)
			if err := cfg.Validate(); err != nil {
				return 0, err
			}
			if i == 0 && n == 10 {
				first = cfg
			}
		}
	}
	for _, cv := range experiment.PaperCVs {
		cfg := busarb.SimConfig{Protocol: rr, Seed: seed, Batches: paperOpts.Batches, BatchSize: paperOpts.BatchSize}
		busarb.WorstCaseWorkload(10, cv).Apply(&cfg)
		if err := cfg.Validate(); err != nil {
			return 0, err
		}
	}
	if res := busarb.Simulate(first); res.Completions == 0 {
		return 0, fmt.Errorf("first table cell completed nothing")
	}
	return time.Since(start), nil
}

// simPasses runs passes until d has passed (at least minPasses), checking
// that every pass digests identically and, at the default seed on
// amd64, matches the golden digest.
func simPasses(seed uint64, d time.Duration, minPasses int, tr func(i int) *tracer) ([]simPass, error) {
	var passes []simPass
	deadline := time.Now().Add(d)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		p, err := runPass(seed, tr(i))
		if err != nil {
			return passes, err
		}
		if len(passes) > 0 && p.digest != passes[0].digest {
			return passes, fmt.Errorf("pass %d digest %s differs from pass 0's %s: the tables are not deterministic",
				i, p.digest, passes[0].digest)
		}
		passes = append(passes, p)
	}
	if seed == defaultSeed && runtime.GOARCH == "amd64" && passes[0].digest != goldenDigest {
		return passes, fmt.Errorf("table digest %s at seed %d, golden %s: the tables are no longer bit-identical",
			passes[0].digest, seed, goldenDigest)
	}
	return passes, nil
}

func simMeasure(seed uint64, d time.Duration) (*report, error) {
	rep := newReport()
	ratios, err := checkSeparation(seed)
	rep.attempted = 3
	if err != nil {
		return rep, err
	}
	start := time.Now()
	passes, err := simPasses(seed, d, 1, func(int) *tracer { return nil })
	rep.attempted += int64(5 * len(passes))
	if err != nil {
		return rep, err
	}
	elapsed := time.Since(start)
	var paper, scale, paperCal, scaleCal, rate []float64
	for _, p := range passes {
		paper = append(paper, p.paper.Seconds())
		scale = append(scale, p.scale.Seconds())
		paperCal = append(paperCal, p.paperCal.Seconds())
		scaleCal = append(scaleCal, p.scaleCal.Seconds())
		rate = append(rate, (paperRequests+scaleRequests)/(p.paperCal+p.scaleCal).Seconds())
	}
	paperP50, paperP90 := quantile(paperCal, 0.5), quantile(paperCal, 0.9)
	scaleP50 := quantile(scaleCal, 0.5)
	reqPerS := median(rate)
	rep.set("op_p50_us", "us", paperP50*1e6)
	rep.set("op_p90_us", "us", paperP90*1e6)
	rep.set("op2_p50_us", "us", scaleP50*1e6)
	rep.set("ops_per_s", "1/s", reqPerS)
	rep.printf("sim-tables: %d passes in %.2fs, digest %s", len(passes), elapsed.Seconds(), passes[0].digest)
	rep.printf("calibrated: sim_paper_s=%.4f (p90 %.4f) sim_scale_s=%.4f simulated_requests_per_s=%.0f",
		paperP50, paperP90, scaleP50, reqPerS)
	rep.printf("uncalibrated: sim_paper_s=%.4f (p90 %.4f) sim_scale_s=%.4f; host %.3fx slower than nominal",
		quantile(paper, 0.5), quantile(paper, 0.9), quantile(scale, 0.5), quantile(paper, 0.5)/paperP50)
	rep.printf("separation n=10 load 2.5: RR1 %.3f FCFS2 %.3f FP %.4f (worst/best agent throughput)",
		ratios[0], ratios[1], ratios[2])
	return rep, nil
}

// simOverhead alternates traced and untraced passes and compares their
// median n <= 30 pass times.
func simOverhead(seed uint64, d time.Duration, tr *tracer) (float64, error) {
	passes, err := simPasses(seed, d, 2, func(i int) *tracer {
		if i%2 == 1 {
			return tr
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var on, off []float64
	for i, p := range passes {
		if i%2 == 1 {
			on = append(on, p.paperCal.Seconds())
		} else {
			off = append(off, p.paperCal.Seconds())
		}
	}
	return median(on)/median(off) - 1, nil
}
