// Command perfbench is the repository's benchmark: one command that
// runs a workload for a fixed time, checks its outputs, and prints its
// metrics. See README.md for the workloads, the metrics, and how each
// layer metric maps onto an end-to-end one.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench steady --workload <name> --runs <k> --seconds <s>
//
// With --trace 0 the last line of standard output is a JSON object
// carrying the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a traced run. A failed correctness check prints
// "correct": false with no metrics and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the golden table digest was recorded with:
// the paper's year, as everywhere else in the repository.
const defaultSeed = 1988

// setupReps is how many fresh set-ups one run times; setup_s is their
// median, which a single sample (ranging over 5x on a loaded host)
// could not give steadily.
const setupReps = 100

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run hands back: the counted operations,
// its metrics, and human-readable lines printed ahead of the JSON.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	lines             []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload (README.md says why each exists):
// a fresh set-up to time, the untraced measurement, and the traced
// measurement of its own loop that yields trace.overhead_frac.
type workload struct {
	name string
	// calibrate scales set-up times by reference bursts (calib.go), for
	// a workload whose set-up is CPU-bound.
	calibrate bool
	setup     func(seed uint64) (time.Duration, error)
	measure   func(seed uint64, d time.Duration) (*report, error)
	// overhead runs the workload's loop for d with tracing toggled on
	// and off and returns traced over untraced primary latency, less 1.
	overhead func(seed uint64, d time.Duration, tr *tracer) (float64, error)
}

func workloads() []workload {
	return []workload{
		{"sim-tables", true, simSetup, simMeasure, simOverhead},
		{"serve-idle", false, idleSetup, idleMeasure, idleOverhead},
		{"serve-saturated", false, satSetup, satMeasure, satOverhead},
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	all := workloads()
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	// Load comes from this one process, on one P unless the
	// environment sets GOMAXPROCS. On two Ps the saturated release was
	// bound by cross-CPU wake-ups, which moved it by up to 20% from run
	// to run and which no reference burst tracked; on one P it drifts
	// with the host's speed and is calibrated (serve.go).
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("go=%s GOMAXPROCS=%d nproc=%d commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())

	d := time.Duration(*seconds * float64(time.Second))
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, d)
	} else {
		rep, err = untracedRun(w, *seed, d)
	}
	res := result{Metrics: map[string]metric{}}
	if rep != nil {
		res.Attempted, res.Failed = rep.attempted, rep.failed
		for _, l := range rep.lines {
			fmt.Println(l)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", w.name, err)
		// The failed check counts as a failed operation.
		res.Attempted = max(res.Attempted, 1)
		res.Failed = max(res.Failed, 1)
		printResult(res)
		return 1
	}
	res.Correct = true
	res.Metrics = rep.metrics
	printMetrics(rep.metrics)
	printResult(res)
	return 0
}

// untracedRun times the fresh set-ups, then measures the workload.
func untracedRun(w *workload, seed uint64, d time.Duration) (*report, error) {
	setups, err := timeSetups(w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep, err := w.measure(seed, d)
	if err != nil {
		return rep, err
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	return rep, nil
}

// timeSetups times setupReps fresh set-ups in blocks of ten; for a
// calibrated workload each block is scaled by the reference bursts
// before and after it.
func timeSetups(w *workload, seed uint64) ([]float64, error) {
	const block = 10
	setups := make([]float64, 0, setupReps)
	var before time.Duration
	if w.calibrate {
		before = reference()
	}
	for len(setups) < setupReps {
		var took [block]time.Duration
		for i := range took {
			var err error
			if took[i], err = w.setup(seed); err != nil {
				return nil, err
			}
		}
		var after time.Duration
		if w.calibrate {
			after = reference()
		}
		for _, t := range took {
			if w.calibrate {
				t = calibrated(t, before, after)
			}
			setups = append(setups, t.Seconds())
		}
		before = after
	}
	return setups, nil
}

// tracedRun measures the workload's own loop with tracing toggled
// (trace.overhead_frac), then climbs the layer ladder, recording spans
// throughout and writing them out at the end.
func tracedRun(w *workload, seed uint64, d time.Duration) (*report, error) {
	tr := newTracer()
	frac, err := w.overhead(seed, d*2/5, tr)
	if err != nil {
		return nil, fmt.Errorf("traced loop: %w", err)
	}
	rep, err := ladder(seed, tr)
	if err != nil {
		return rep, err
	}
	rep.set("trace.overhead_frac", "ratio", frac)
	tr.writeSummary(os.Stdout)
	path := filepath.Join(outDir(), fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := tr.dump(path); err != nil {
		return rep, fmt.Errorf("writing spans: %w", err)
	}
	rep.printf("spans written to %s", path)
	return rep, nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func printResult(res result) {
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// commit names the source revision, as the wrapper script found it.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// outDir is where the run may write files: the build directory the
// wrapper script set up inside the checkout.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or
// -1 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return -1
			}
			return kb / 1024
		}
	}
	return -1
}
