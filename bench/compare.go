package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// minPairs is the fewest parent/change run pairs compare judges from.
const minPairs = 10

// compareMain implements "bench compare PARENT.jsonl CHANGE.jsonl": the
// files hold the untraced result records of the parent commit and of the
// change, run in alternating pairs with the same seeds; the i-th record of a
// workload in one file pairs with the i-th of that workload in the other. It
// prints one verdict per workload and end-to-end metric, plus the failure
// ratio, and exits 1 when any verdict is "regressed".
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	var sides [2][]result
	for i, path := range args {
		recs, err := readResults(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %v\n", err)
			return 2
		}
		sides[i] = recs
	}
	rows, err := compare(sides[0], sides[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tparent median\tchange median\tparent IQR\tchange wins\tverdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.3g\t%d\t%s\n", r.workload, r.metric, r.pairs, r.parent, r.change, r.iqr, r.wins, r.verdict)
		if r.verdict == "regressed" {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return code
}

// readResults reads the untraced records of a results.jsonl file.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdictRow is one line of the comparison.
type verdictRow struct {
	workload, metric    string
	pairs, wins         int
	parent, change, iqr float64
	verdict             string
}

// compare judges every workload present in both record sets.
func compare(parent, change []result) ([]verdictRow, error) {
	var rows []verdictRow
	for _, w := range workloads {
		p, c := byWorkload(parent, w.name), byWorkload(change, w.name)
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		n := min(len(p), len(c))
		if n < minPairs {
			return nil, fmt.Errorf("%s: %d run pairs, need at least %d", w.name, n, minPairs)
		}
		p, c = p[:n], c[:n]
		for _, d := range endToEnd {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				var okP, okC bool
				pv[i], okP = p[i].Metrics[d.name]
				cv[i], okC = c[i].Metrics[d.name]
				if !okP || !okC {
					return nil, fmt.Errorf("%s: pair %d has no %s", w.name, i+1, d.name)
				}
			}
			row := judge(d, pv, cv)
			row.workload, row.metric = w.name, d.name
			rows = append(rows, row)
		}
		rows = append(rows, judgeFailures(w.name, p, c))
	}
	return rows, nil
}

func byWorkload(recs []result, name string) []result {
	var out []result
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// judge applies the acceptance rules to one metric's paired values. A gain
// needs the change to win at least 9 of 10 pairs (ties count for neither
// side) and the medians to differ by more than the parent's interquartile
// range. A regression is a median worse than the parent's by more than the
// metric's bound. When the parent's spread is wider than the bound, the
// metric cannot tell a regression from noise: it reads unresolved unless
// every change run beats every parent run.
func judge(d metricDef, pv, cv []float64) verdictRow {
	lower := d.better == "lower"
	beats := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	row := verdictRow{pairs: len(pv), parent: median(pv), change: median(cv)}
	for i := range pv {
		if beats(cv[i], pv[i]) {
			row.wins++
		}
	}
	q1, q3 := quartiles(pv)
	row.iqr = q3 - q1
	worse := row.change - row.parent
	if !lower {
		worse = -worse
	}
	allBeat := true
	for _, c := range cv {
		for _, p := range pv {
			allBeat = allBeat && beats(c, p)
		}
	}
	limit := d.bound * math.Abs(row.parent)
	switch {
	case 10*row.wins >= 9*row.pairs && worse < 0 && -worse > row.iqr:
		row.verdict = "improved"
	case row.iqr > limit && !allBeat:
		row.verdict = "unresolved"
	case worse > limit:
		row.verdict = "regressed"
	default:
		row.verdict = "unchanged"
	}
	return row
}

// judgeFailures compares the share of failed requests over all runs: any
// increase is a regression.
func judgeFailures(name string, p, c []result) verdictRow {
	ratio := func(rs []result) float64 {
		failed, attempted := 0, 0
		for _, r := range rs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return float64(failed) / float64(max(attempted, 1))
	}
	row := verdictRow{workload: name, metric: "fail_ratio", pairs: len(p), parent: ratio(p), change: ratio(c), verdict: "unchanged"}
	switch {
	case row.change > row.parent:
		row.verdict = "regressed"
	case row.change < row.parent:
		row.verdict = "improved"
	}
	return row
}
