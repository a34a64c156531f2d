package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNamesMatchSpec keeps the metric tables, the workloads and
// BENCHMARK.json identical, and every name and unit within the allowed
// characters.
func TestMetricNamesMatchSpec(t *testing.T) {
	spec := readSpec(t)
	seen := map[string]bool{}
	checkName := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != d.name || s.Unit != d.unit || s.Better != d.better || s.Bound != d.bound {
			t.Errorf("end-to-end metric %d: spec %+v, benchmark %+v", i, s, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		checkName(d.name, d.unit)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		s := spec.PerLayer[i]
		if s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
			t.Errorf("per-layer metric %d: spec %+v, benchmark %+v", i, s, d)
		}
		checkName(d.name, d.unit)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why == "" {
			t.Errorf("workload %d: spec %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
		checkName(w.name, "x")
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower better; got %+v", d)
	}
}
