package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// repeatMain runs chosen workloads repeatedly, one seed per run, and
// prints for each metric the median, quartiles, min, max and the
// quartile spread as a share of the median.
func repeatMain(args []string) error {
	fs := flag.NewFlagSet("perfbench repeat", flag.ContinueOnError)
	workloads := fs.String("workloads", strings.Join(workloadNames, ","), "comma-separated workloads")
	runs := fs.Int("runs", 10, "runs per workload")
	seed0 := fs.Int64("seed", 1, "seed of the first run; later runs count up")
	seconds := fs.Int("seconds", 10, "length of each timed phase")
	traceFlag := fs.Int("trace", 0, "1 repeats the traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range strings.Split(*workloads, ",") {
		if err := checkWorkload(w); err != nil {
			return err
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []float64
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			res, err := runOnce(self, w, seed, *seconds, *traceFlag)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: output checks failed", w, seed)
			}
			shares = append(shares, float64(res.Failed)/float64(res.Attempted))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			line, _ := json.Marshal(res)
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w, seed, line)
		}
		printSummary(w, *runs, values, units, shares)
	}
	return nil
}

// runOnce runs the benchmark once as a child process and parses its
// result line.
func runOnce(self, workload string, seed int64, seconds, traceFlag int) (result, error) {
	var res result
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traceFlag))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	if last == "" {
		return res, errors.New("no result line")
	}
	err := json.Unmarshal([]byte(last), &res)
	return res, err
}

func printSummary(workload string, runs int, values map[string][]float64, units map[string]string, shares []float64) {
	fmt.Printf("workload %s: %d runs, failed share %v\n", workload, runs, uniq(shares))
	fmt.Printf("  %-32s %-7s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		xs := values[k]
		q1, med, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("  %-32s %-7s %12.4f %12.4f %12.4f %12.4f %12.4f %7.2f%%\n", k, units[k], med, q1, q3, lo, hi, 100*spread)
	}
}

func uniq(xs []float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
