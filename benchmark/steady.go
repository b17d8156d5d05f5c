package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs the workload n times in child processes with seeds
// seed, seed+1, ..., and prints for each metric the median, the first
// and third quartiles, and the quartile spread as a share of the median
// (the figure the bounds in BENCHMARK.json are set from), plus the
// share of failed transactions in each run.
func runSteady(name string, seed int64, seconds, trace, shared, n int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("steady: %w", err)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace),
			"--shared-warehouses", strconv.Itoa(shared))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("steady: run %d (seed %d): %w", i+1, s, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("steady: run %d (seed %d): %w", i+1, s, err)
		}
		if !res.Correct {
			return fmt.Errorf("steady: run %d (seed %d) failed its correctness check", i+1, s)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		fmt.Printf("run %2d seed %d: attempted %d failed %d\n", i+1, s, res.Attempted, res.Failed)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-34s %14.4f %14.4f %14.4f %7.2f%%  %s\n", k, q1, med, q3, 100*spread, units[k])
	}
	fmt.Printf("failed share per run: %v\n", failShares)
	return nil
}

// lastResult parses the JSON object on the last non-empty line of a
// run's standard output.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	return &res, nil
}
