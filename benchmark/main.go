// Command benchmark is the repository's one benchmark: it loads a
// database, drives a named workload closed-loop with two clients,
// checks the database's final contents, and prints every end-to-end
// metric. With --trace 1 it instead reports per-layer metrics from a
// separate traced phase. See README.md for the workloads and metrics.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash benchmark/run.sh --workload tpcc-fit --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --steady 10 --workload tpcc-fit --seed 1 --seconds 20
//
// A human-readable report goes to standard error; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable outcome of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	spans   string // file to write the traced run's spans to ("" keeps them in memory only)
	// sharedWarehouses runs tpcc-* with internal/tpcc's own profiles,
	// both clients over every warehouse (README.md, "Known fault").
	sharedWarehouses bool
}

// workload is one named input set the benchmark can run.
type workload struct {
	name string
	run  func(rc runConfig) (*result, error)
}

var workloads = []workload{
	{name: "tpcc-fit", run: func(rc runConfig) (*result, error) { return runTPCC(fitShape, rc) }},
	{name: "tpcc-spill", run: func(rc runConfig) (*result, error) { return runTPCC(spillShape, rc) }},
	{name: "wire-payment", run: runWire},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: tpcc-fit, tpcc-spill or wire-payment")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	spans := flag.String("spans", "", "with --trace 1, write the recorded spans to this file as JSON lines")
	shared := flag.Int("shared-warehouses", 0, "1 runs tpcc-* with internal/tpcc's own profiles, both clients over every warehouse (shows the known fault; not a benchmark workload)")
	steady := flag.Int("steady", 0, "run the workload this many times with seeds seed, seed+1, ... and print each metric's quartiles")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "--seconds must be at least 1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(w.name, *seed, *seconds, *trace, *shared, *steady); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	res, err := w.run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, sharedWarehouses: *shared == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		os.Exit(1)
	}
	printMetrics(res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// logf writes one report line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// printMetrics writes the result's metrics, one per line, to the report.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "result: correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(&sb, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprint(os.Stderr, sb.String())
}
