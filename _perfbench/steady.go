package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The steadiness report: run one workload k times, each with its own
// seed, and print every metric's median, quartiles and relative spread
// against the bounds in BENCHMARK.json. A metric whose spread exceeds
// a third of its bound is flagged "unsteady"; one beyond the bound
// itself, "OUT". setup_s is exempt from the spread rule: its bound
// guards the median across builds, not the spread within one.

// benchSpec is the part of BENCHMARK.json the report reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 5, "number of runs, seeds first-seed..first-seed+runs-1")
	first := fs.Uint64("first-seed", 1, "seed of the first run")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (0: BENCHMARK.json's run_seconds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: BENCHMARK.json: %v\n", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *runs < 2 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench steady: need --runs >= 2 and --seconds > 0")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 1
	}
	values := make(map[string][]float64)
	for i := 0; i < *runs; i++ {
		seed := *first + uint64(i)
		res, err := runOnce(self, *name, seed, *seconds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		var parts []string
		for _, m := range spec.EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench steady: run %d lacks metric %s\n", i+1, m.Name)
				return 1
			}
			values[m.Name] = append(values[m.Name], v.Value)
			parts = append(parts, m.Name+"="+strconv.FormatFloat(v.Value, 'g', 6, 64))
		}
		fmt.Printf("run %d seed %d: %s\n", i+1, seed, strings.Join(parts, " "))
	}
	fmt.Printf("\n%s: %d runs of %gs\n", *name, *runs, *seconds)
	fmt.Printf("%-14s %14s %14s %14s %8s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	bad := 0
	names := make([]string, 0, len(spec.EndToEnd))
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		bounds[m.Name] = m.Bound
	}
	sort.Strings(names)
	for _, n := range names {
		vs := values[n]
		q1, _, q3, err := quartiles(vs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: %s: %v\n", n, err)
			return 1
		}
		sp, _ := spread(vs)
		verdict := "ok"
		switch {
		case n == "setup_s":
			verdict = "ok (spread not gated)"
		case sp > bounds[n]:
			verdict = "OUT"
			bad++
		case sp > bounds[n]/3:
			verdict = "unsteady"
			bad++
		}
		fmt.Printf("%-14s %14.6g %14.6g %14.6g %8.4f %7.3f  %s\n", n, q1, median(vs), q3, sp, bounds[n], verdict)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runOnce runs the benchmark as a child process and parses its last
// output line.
func runOnce(self, name string, seed uint64, seconds float64) (result, error) {
	var res result
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported correct=false")
	}
	return res, nil
}
