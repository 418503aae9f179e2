// Command spannerbench is the seeded benchmark of spannerd and the
// docspanner library beneath it. It runs one workload (or all) against
// server.New in-process behind loopback listeners, checks every answer
// against a library oracle, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	spannerbench --workload read-plain --seed 1 --seconds 10 --trace 0
//	spannerbench --workload all --seed 1 --seconds 10
//	spannerbench --compare a.json b.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// run and reports the per-layer metrics. Every run also writes its full
// result, with provenance, under --out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spannerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives byte-identical inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "spannerbench"), "directory for result files and traces")
	compare := fs.Bool("compare", false, "compare two result files (same host only): --compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "spannerbench: --compare needs two result files")
			return 2
		}
		return compareResults(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var wls []workload
	if *name == "all" {
		wls = workloads
	} else if w, ok := findWorkload(*name); ok {
		wls = []workload{w}
	} else {
		fmt.Fprintf(stderr, "spannerbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "spannerbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "spannerbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "spannerbench:", err)
		return 1
	}

	var last *result
	correct, attempted, failed := true, 0, 0
	for _, wl := range wls {
		res, err := runBench(wl, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fmt.Fprintf(stderr, "spannerbench: %s: %v\n", wl.name, err)
			return 1
		}
		printReport(stdout, res)
		path := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, *seed, *trace))
		if err := writeResult(path, res); err != nil {
			fmt.Fprintln(stderr, "spannerbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "result written to %s\n", path)
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		last = res
	}
	metrics := last.Metrics
	if len(wls) > 1 {
		// One line per workload is above; the summary carries no metrics
		// of its own.
		metrics = map[string]metric{}
	}
	line, _ := json.Marshal(map[string]any{"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics})
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// printReport prints every measured metric by name and unit, the
// provenance, and the run's report lines.
func printReport(w io.Writer, r *result) {
	fmt.Fprintf(w, "== spannerbench %s seed=%d trace=%v seconds=%g\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	p := r.Provenance
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s fsync=%s\n", p.NProc, p.GOMAXPROCS, p.GoVersion, p.CPUModel, p.Commit, p.Fsync)
	for _, l := range r.Report {
		fmt.Fprintln(w, l)
	}
	printMetrics := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintln(w, title)
		var names []string
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	printMetrics("metrics:", r.Metrics)
	printMetrics("workload-specific metrics (not gated):", r.Extra)
	if len(r.Counters) > 0 {
		fmt.Fprintln(w, "counters (repeat exactly for a seed):")
		var names []string
		for k := range r.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-36s %d\n", k, r.Counters[k])
		}
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "WRONG: %s\n", e)
	}
}

func writeResult(path string, r *result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
