package obs

import (
	"math"
	"testing"
)

// refSamples is a deterministic spread over [0, 1) used as the drift
// reference in these tests.
func refSamples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / float64(n)
	}
	return out
}

// TestDriftStableDistribution feeds the monitor a window drawn from the same
// distribution as the reference: PSI must stay near zero and the monitor must
// never degrade.
func TestDriftStableDistribution(t *testing.T) {
	d := NewDriftMonitor("test_stable", DriftConfig{Window: 64, MinSamples: 16})
	d.SetReference(refSamples(64))
	for _, v := range refSamples(64) {
		d.Observe(v)
	}
	st := d.Evaluate()
	if st.Degraded {
		t.Errorf("identical distribution reported degraded (PSI %v)", st.PSI)
	}
	if st.PSI > 0.05 {
		t.Errorf("identical distribution PSI = %v, want ~0", st.PSI)
	}
	if st.WindowSamples != 64 || st.ReferenceSamples != 64 {
		t.Errorf("status samples = %d/%d, want 64/64", st.WindowSamples, st.ReferenceSamples)
	}
}

// TestDriftShiftedDistribution moves the whole window outside the reference
// range: every observation lands in the overflow bin, PSI blows past the
// threshold and the monitor degrades — the state /healthz surfaces.
func TestDriftShiftedDistribution(t *testing.T) {
	d := NewDriftMonitor("test_shifted", DriftConfig{Window: 64, MinSamples: 16})
	d.SetReference(refSamples(64))
	for i := 0; i < 64; i++ {
		d.Observe(10 + float64(i))
	}
	st := d.Evaluate()
	if !st.Degraded {
		t.Errorf("fully shifted distribution not degraded (PSI %v)", st.PSI)
	}
	if st.PSI < 0.25 {
		t.Errorf("shifted PSI = %v, want >= default threshold 0.25", st.PSI)
	}
	if got := d.Status(); !got.Degraded {
		t.Error("Status does not reflect the last evaluation")
	}
}

// TestDriftColdWindow: below MinSamples the monitor must not judge — a few
// early requests say nothing about the distribution.
func TestDriftColdWindow(t *testing.T) {
	d := NewDriftMonitor("test_cold", DriftConfig{Window: 64, MinSamples: 16})
	d.SetReference(refSamples(64))
	for i := 0; i < 10; i++ {
		d.Observe(1000) // wildly off-reference, but only 10 samples
	}
	if st := d.Evaluate(); st.Degraded || st.PSI != 0 {
		t.Errorf("cold window judged: %+v, want PSI 0 / not degraded", st)
	}
}

// TestDriftNoReference: without a reference (empty probe set) the monitor
// observes but never degrades.
func TestDriftNoReference(t *testing.T) {
	d := NewDriftMonitor("test_noref", DriftConfig{Window: 8, MinSamples: 2})
	d.SetReference(nil)
	for i := 0; i < 32; i++ {
		d.Observe(float64(i))
	}
	if st := d.Evaluate(); st.Degraded || st.PSI != 0 {
		t.Errorf("reference-free monitor judged: %+v", st)
	}
}

// TestDriftAutoEvaluateOnWrap: sustained traffic refreshes the status without
// anyone polling Evaluate — the window-wrap auto-evaluation.
func TestDriftAutoEvaluateOnWrap(t *testing.T) {
	d := NewDriftMonitor("test_wrap", DriftConfig{Window: 32, MinSamples: 8})
	d.SetReference(refSamples(32))
	for i := 0; i < 32; i++ {
		d.Observe(100)
	}
	if st := d.Status(); !st.Degraded {
		t.Errorf("window wrap did not auto-evaluate: %+v", st)
	}
}

// TestDriftSetReferenceResetsWindow: a model swap resets the rolling window —
// observations against the old model must not indict the new one.
func TestDriftSetReferenceResetsWindow(t *testing.T) {
	d := NewDriftMonitor("test_reset", DriftConfig{Window: 32, MinSamples: 8})
	d.SetReference(refSamples(32))
	for i := 0; i < 32; i++ {
		d.Observe(100)
	}
	d.SetReference(refSamples(32))
	if st := d.Evaluate(); st.WindowSamples != 0 || st.Degraded {
		t.Errorf("SetReference did not reset the window: %+v", st)
	}
}

// TestDriftSkipsNonFinite: NaN and infinite values are skipped, in the
// reference and in the rolling window, so the verdict equals that of the
// finite values alone. Binning a NaN, or any value against a -Inf reference
// bound, once turned a NaN ratio into a negative bin index and panicked.
func TestDriftSkipsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	window := make([]float64, 32) // half inside the reference range, half above
	for i := range window {
		window[i] = float64(i%8) / 4
	}
	withNonFinite := func(vs []float64) []float64 {
		var out []float64
		for i, v := range vs {
			out = append(out, v)
			if i%5 == 0 {
				out = append(out, nan, -inf, inf)
			}
		}
		return out
	}
	verdict := func(ref, observed []float64) (wrapped, evaluated DriftStatus) {
		d := NewDriftMonitor("test_nonfinite", DriftConfig{Window: 32, MinSamples: 8})
		d.SetReference(ref)
		for _, v := range observed {
			d.Observe(v)
		}
		return d.Status(), d.Evaluate()
	}
	wantWrapped, wantEvaluated := verdict(refSamples(32), window)
	if wantEvaluated.PSI == 0 || wantEvaluated.WindowSamples != 32 || wantWrapped != wantEvaluated {
		t.Fatalf("finite verdict %+v after the wrap, %+v evaluated: want one non-zero PSI over a full window",
			wantWrapped, wantEvaluated)
	}
	for name, c := range map[string][2][]float64{
		"reference": {withNonFinite(refSamples(32)), window},
		"window":    {refSamples(32), withNonFinite(window)},
		"both":      {withNonFinite(refSamples(32)), withNonFinite(window)},
	} {
		wrapped, evaluated := verdict(c[0], c[1])
		if wrapped != wantWrapped || evaluated != wantEvaluated {
			t.Errorf("non-finite values in the %s: verdict %+v / %+v, want %+v / %+v",
				name, wrapped, evaluated, wantWrapped, wantEvaluated)
		}
	}
}

func TestDriftNilSafe(t *testing.T) {
	var d *DriftMonitor
	d.SetReference(refSamples(8))
	d.Observe(1)
	if st := d.Evaluate(); st.Degraded {
		t.Error("nil monitor degraded")
	}
	if st := d.Status(); st != (DriftStatus{}) {
		t.Errorf("nil monitor status = %+v, want zero", st)
	}
}

func TestPSI(t *testing.T) {
	p := []float64{0.5, 0.3, 0.2}
	if got := PSI(p, p); got != 0 {
		t.Errorf("PSI(p, p) = %v, want 0", got)
	}
	q := []float64{0.2, 0.3, 0.5}
	got, rev := PSI(p, q), PSI(q, p)
	if got <= 0 {
		t.Errorf("PSI of different distributions = %v, want > 0", got)
	}
	if math.Abs(got-rev) > 1e-12 {
		t.Errorf("PSI not symmetric: %v vs %v", got, rev)
	}
	// Disjoint mass: eps floor keeps the result large but finite.
	if v := PSI([]float64{1, 0}, []float64{0, 1}); math.IsInf(v, 0) || math.IsNaN(v) || v < 1 {
		t.Errorf("disjoint PSI = %v, want large finite", v)
	}
}

// TestDriftMetricsRegistered: the monitor's gauges and counters land in a live
// registry under obs.drift.<name>.* — the names the ci e2e manifest assertion
// and the naming lint cover.
func TestDriftMetricsRegistered(t *testing.T) {
	run := NewRun("drift-metrics-test", NewRegistry(), nil, nil)
	Install(run)
	defer Uninstall()
	d := NewDriftMonitor("score", DriftConfig{Window: 16, MinSamples: 4})
	d.SetReference(refSamples(16))
	for i := 0; i < 16; i++ {
		d.Observe(float64(i) / 16)
	}
	d.Evaluate()
	snap := run.Reg.Snapshot()
	if snap.Counters["obs.drift.score.observed"] != 16 {
		t.Errorf("obs.drift.score.observed = %d, want 16", snap.Counters["obs.drift.score.observed"])
	}
	if snap.Counters["obs.drift.score.evals"] < 1 {
		t.Error("obs.drift.score.evals recorded no evaluations")
	}
	if _, ok := snap.Gauges["obs.drift.score.psi"]; !ok {
		t.Error("obs.drift.score.psi gauge not registered")
	}
	if errs := LintSnapshot(&snap); len(errs) != 0 {
		t.Errorf("drift metric names fail the lint: %v", errs)
	}
}
