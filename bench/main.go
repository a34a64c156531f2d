// Command bench is the repository's benchmark. It trains LearnShapley-base,
// starts the ranking daemon (internal/serve) in-process on a loopback port,
// drives /rank with its own load generator, checks every answer, and reports
// end-to-end metrics; a traced run reports per-layer metrics instead.
//
//	bench -workload rank_short -seed 1                 # end-to-end metrics
//	bench -workload rank_long -seed 1 -trace 1         # per-layer metrics + Chrome trace
//	bench -workload all                                # every workload in turn
//	bench compare PARENT.jsonl CHANGE.jsonl            # judge paired runs of two commits
//
// Output: one "workload metric value unit" line per metric, then one JSON
// line {"correct","attempted","failed","metrics"}. Each run also appends its
// record to <out>/results.jsonl, the input of compare. The exit status is
// non-zero when an answer fails its checks or a metric cannot be reported.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "rank_short, rank_long, rank_mixed, or all")
	seed := fs.Int64("seed", 1, "seed of the request order")
	seconds := fs.Float64("seconds", 15, "seconds of measured load, split between the workload's phases")
	trace := fs.Int("trace", 0, "1: a traced run, reporting the per-layer metrics")
	out := fs.String("out", ".bench_build/out", "directory for results.jsonl and Chrome traces (empty: write none)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	list := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		list = []workload{w}
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	code := 0
	for _, w := range list {
		if !runOne(w, *seed, settings{seconds: *seconds, trace: *trace == 1, out: *out, setups: 3}) {
			code = 1
		}
	}
	os.Exit(code)
}

// runOne runs one workload and prints its result; it reports success.
func runOne(w workload, seed int64, s settings) bool {
	res, err := run(w, seed, s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return false
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s\n", p)
	}
	defs := endToEnd
	if s.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: %s: no value for %s\n", w.name, d.name)
			return false
		}
	}
	if err := printResult(os.Stdout, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return false
	}
	if err := writeOut(s.out, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write result: %v\n", err)
		return false
	}
	return res.Correct
}

// printResult writes the metric lines and, last, the JSON summary line.
func printResult(w io.Writer, res *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		v := res.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		summary.Metrics[d.name] = value{v, d.unit}
	}
	return writeJSONLine(w, summary)
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// machineKey names the host class results were measured on, such as
// linux-amd64-2c-go1.24.0.
func machineKey() string {
	return fmt.Sprintf("%s-%s-%dc-%s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
}
