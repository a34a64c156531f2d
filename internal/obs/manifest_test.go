package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateManifestFile validates a manifest file against the schema
// contract. scripts/ci.sh points REPRO_MANIFEST at the manifest emitted by its
// tiny end-to-end run; without the variable the test exercises the same check
// on a manifest this process writes itself, so the file-writing path
// (Run.WriteManifest → Finish) is covered in plain `go test` runs too.
func TestValidateManifestFile(t *testing.T) {
	path := os.Getenv("REPRO_MANIFEST")
	if path == "" {
		path = filepath.Join(t.TempDir(), "run.json")
		reg := NewRegistry()
		reg.Counter("c").Add(1)
		run := NewRun("self-test", reg, NewTracer(), nil)
		done := run.Tracer.Span("phase")
		done()
		run.metricsOut = path
		if err := run.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read manifest %s: %v", path, err)
	}
	if err := ValidateManifest(data); err != nil {
		t.Fatalf("manifest %s invalid: %v", path, err)
	}
	// REPRO_MANIFEST_EXPECT_METRICS names comma-separated metric-name prefixes
	// that must appear (with activity) in the manifest's metrics snapshot —
	// scripts/ci.sh uses it to assert the tiny end-to-end run genuinely
	// exercised specific subsystems (e.g. nn.mbatch. for the packed ranking
	// path) rather than merely registering their metrics.
	expect := os.Getenv("REPRO_MANIFEST_EXPECT_METRICS")
	if expect == "" {
		return
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Metrics == nil {
		t.Fatalf("manifest %s has no metrics snapshot but prefixes %q are expected", path, expect)
	}
	for _, prefix := range strings.Split(expect, ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix == "" {
			continue
		}
		found := false
		for name, v := range m.Metrics.Counters {
			if strings.HasPrefix(name, prefix) && v > 0 {
				found = true
				break
			}
		}
		for name, h := range m.Metrics.Histograms {
			if strings.HasPrefix(name, prefix) && h.Count > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("manifest %s records no active metric with prefix %q", path, prefix)
		}
	}
}

// TestManifestMetricNamesLint runs the metric-naming lint over a live registry
// snapshot. With REPRO_MANIFEST set (scripts/ci.sh points it at the manifests
// of the tiny end-to-end runs) it lints every metric those runs actually
// registered — so a new metric whose name breaks the convention, or whose
// Prometheus normalization collides with an existing one, fails CI with the
// offending name spelled out. Without the variable it lints a
// representatively-named local registry, covering the lint path in plain
// `go test` runs.
func TestManifestMetricNamesLint(t *testing.T) {
	var snap *Snapshot
	if path := os.Getenv("REPRO_MANIFEST"); path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read manifest %s: %v", path, err)
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if m.Metrics == nil {
			t.Fatalf("manifest %s has no metrics snapshot to lint", path)
		}
		snap = m.Metrics
	} else {
		reg := NewRegistry()
		reg.Counter("serve.req.rank").Add(1)
		reg.Gauge("obs.drift.score.psi").Set(0)
		reg.Histogram("serve.stage.queue_wait_ms", ExpBuckets(0.05, 2, 4)).Observe(1)
		local := reg.Snapshot()
		snap = &local
	}
	for _, err := range LintSnapshot(snap) {
		t.Error(err)
	}
}
