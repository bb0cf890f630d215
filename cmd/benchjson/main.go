// Command benchjson converts `go test -bench -benchmem` text output
// (read from stdin) into the repository's BENCH_<date>.json snapshot
// format, so the performance trajectory of the simulator can be archived
// and diffed PR over PR. With -compare it diffs two snapshots instead
// and exits 1 on regressions: any allocs/op increase, or an ns/op
// increase beyond -ns-threshold (negative disables the ns check — the
// setting for CI, whose hardware differs from the archived runs').
// Snapshots record the toolchain that built benchjson — the same one
// that ran the piped benchmarks under `go run` — and -compare prints
// both snapshots' toolchains: allocation counts depend on it.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -o BENCH_2026-08-06.json
//	go test -bench=Table41 -benchmem . | benchjson        # JSON to stdout
//	benchjson -compare BENCH_2026-08-06.json BENCH_2026-08-08.json
//	... | benchjson -o new.json && benchjson -compare -ns-threshold=-1 BENCH_2026-08-08.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"busarb/internal/report"
)

func main() {
	var (
		out     = flag.String("o", "", "output file (default stdout)")
		date    = flag.String("date", "", "snapshot date, YYYY-MM-DD (default today)")
		stamp   = flag.Bool("stamp", true, "stamp the snapshot with today's date when -date is not given; -stamp=false leaves the date empty so output is byte-reproducible")
		compare = flag.Bool("compare", false, "compare two BENCH_<date>.json snapshots (args: old.json new.json, \"-\" reads one from stdin); exit 1 on regressions")
		nsThr   = flag.Float64("ns-threshold", 0.25, "with -compare, relative ns/op increase that counts as a regression (0.25 = 25% slower); negative disables the ns/op check")
	)
	flag.Parse()

	if *compare {
		runCompare(flag.Args(), *nsThr)
		return
	}

	suite, err := report.ParseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(suite.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin (pipe `go test -bench` output in)")
		os.Exit(1)
	}
	suite.Date = *date
	suite.Go = runtime.Version()
	if suite.Date == "" && *stamp {
		// The one sanctioned wall-clock read in the repository: the
		// BENCH_<date>.json archive is named after the day it was taken.
		// Regeneration runs pass -stamp=false (or -date) instead.
		suite.Date = time.Now().Format("2006-01-02") //arblint:allow determinism
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := report.WriteBenchJSON(w, suite); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d benchmarks to %s\n", len(suite.Benchmarks), *out)
	}
}

// readSnapshot loads a BENCH_<date>.json file; "-" reads stdin.
func readSnapshot(path string) *report.BenchSuite {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	s, err := report.ReadBenchJSON(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		os.Exit(1)
	}
	return s
}

// runCompare diffs two snapshots and exits 1 if the newer one
// regressed.
func runCompare(args []string, nsThreshold float64) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two arguments: old.json new.json")
		os.Exit(1)
	}
	oldS, newS := readSnapshot(args[0]), readSnapshot(args[1])
	fmt.Printf("benchjson: toolchains: %s %s, %s %s\n", args[0], toolchain(oldS), args[1], toolchain(newS))
	if oldS.Go != newS.Go {
		fmt.Println("benchjson: note: the toolchains differ; allocs/op can shift with the compiler and runtime alone")
	}
	regressions, missing := report.CompareBench(oldS, newS, nsThreshold)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "benchjson: note: %s is in %s but not %s\n", name, args[0], args[1])
	}
	if len(regressions) == 0 {
		shared := len(oldS.Benchmarks) - len(missing)
		fmt.Printf("benchjson: no regressions across %d shared benchmarks\n", shared)
		return
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "benchjson: regression:", r)
	}
	os.Exit(1)
}

// toolchain names a snapshot's toolchain for the compare header.
func toolchain(s *report.BenchSuite) string {
	if s.Go == "" {
		return "(toolchain not recorded)"
	}
	return s.Go
}
