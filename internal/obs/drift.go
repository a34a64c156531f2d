package obs

import (
	"math"
	"sync"
)

// DriftConfig sizes one DriftMonitor. The zero value gets usable defaults
// from NewDriftMonitor.
type DriftConfig struct {
	// Bins is the number of equal-width interior bins the reference range is
	// split into (underflow/overflow bins are added outside it). Default 10.
	Bins int
	// Window is how many recent observations the rolling sketch keeps.
	// Default 256.
	Window int
	// MinSamples is the window fill below which Evaluate reports PSI 0 and
	// never degrades — a cold window says nothing about drift. Default 16.
	MinSamples int
	// PSIThreshold is the population-stability-index value at or above which
	// the monitor reports degraded. The conventional reading is < 0.1 stable,
	// 0.1–0.25 shifting, > 0.25 drifted; default 0.25.
	PSIThreshold float64
}

// DriftStatus is one Evaluate result — the document /healthz embeds.
type DriftStatus struct {
	Name string `json:"name"`
	// PSI is the population-stability index of the rolling window against the
	// reference sketch (0 = identical distributions).
	PSI float64 `json:"psi"`
	// WindowSamples / ReferenceSamples report how much data the verdict rests
	// on; Degraded is never true while either is too small to judge.
	WindowSamples    int  `json:"window_samples"`
	ReferenceSamples int  `json:"reference_samples"`
	Degraded         bool `json:"degraded"`
}

// DriftMonitor guards one scalar distribution online. At model load time the
// owner captures a reference sketch (SetReference with self-scored probe
// values); at serve time every produced value is Observed into a rolling
// window, and Evaluate compares the window's empirical distribution against
// the reference with a population-stability-index divergence. The point is
// the failure mode exact recomputation is too expensive to check live: a
// model whose score distribution has walked away from its load-time shape is
// degraded even though every request still gets an answer.
//
// Observation is passive — it reads values, never mutates them — and cheap
// (one mutex, one ring write, occasionally an O(bins+window) evaluation when
// the window wraps). All methods are safe for concurrent use; the nil monitor
// is the no-op recorder.
type DriftMonitor struct {
	name string
	cfg  DriftConfig

	mu     sync.Mutex
	lo, hi float64   // reference bin range
	refP   []float64 // reference proportions, len Bins+2 (underflow, ..., overflow)
	refN   int
	win    []float64 // rolling window ring
	n      int       // live entries in win
	next   int
	seen   int64 // total observations since last SetReference
	last   DriftStatus

	gPSI, gState *Gauge
	cObserved    *Counter
	cEvals       *Counter
}

// NewDriftMonitor builds a monitor named name; metrics register as
// obs.drift.<name>.psi, .state (gauges: state 0 = ok, 1 = degraded),
// .observed and .evals (counters). Handles resolve against the live registry
// at construction, per the package contract.
func NewDriftMonitor(name string, cfg DriftConfig) *DriftMonitor {
	if cfg.Bins <= 0 {
		cfg.Bins = 10
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 16
	}
	if cfg.PSIThreshold <= 0 {
		cfg.PSIThreshold = 0.25
	}
	reg := Metrics()
	prefix := "obs.drift." + name
	return &DriftMonitor{
		name:      name,
		cfg:       cfg,
		win:       make([]float64, cfg.Window),
		last:      DriftStatus{Name: name},
		gPSI:      reg.Gauge(prefix + ".psi"),
		gState:    reg.Gauge(prefix + ".state"),
		cObserved: reg.Counter(prefix + ".observed"),
		cEvals:    reg.Counter(prefix + ".evals"),
	}
}

// SetReference captures the reference sketch from a set of self-scored probe
// values and resets the rolling window — observations made against the
// previous reference describe the previous model. NaN and infinite values are
// skipped; a set with no finite value clears the reference (the monitor then
// never degrades). Nil-safe.
func (d *DriftMonitor) SetReference(samples []float64) {
	if d == nil {
		return
	}
	finite := make([]float64, 0, len(samples))
	for _, v := range samples {
		if isFinite(v) {
			finite = append(finite, v)
		}
	}
	samples = finite
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n, d.next, d.seen = 0, 0, 0
	d.refN = len(samples)
	d.last = DriftStatus{Name: d.name, ReferenceSamples: d.refN}
	d.gPSI.Set(0)
	d.gState.Set(0)
	if len(samples) == 0 {
		d.refP = nil
		return
	}
	d.lo, d.hi = samples[0], samples[0]
	for _, v := range samples {
		d.lo, d.hi = math.Min(d.lo, v), math.Max(d.hi, v)
	}
	if d.hi == d.lo {
		// Degenerate reference: widen so binning stays defined.
		d.hi = d.lo + 1
	}
	counts := make([]float64, d.cfg.Bins+2)
	for _, v := range samples {
		counts[d.bin(v)]++
	}
	d.refP = counts
	for i := range d.refP {
		d.refP[i] /= float64(len(samples))
	}
}

// isFinite reports whether v is neither NaN nor ±Inf: the values bin can
// place, since a NaN ratio would convert to a negative index.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// bin maps a finite value to its sketch bin: 0 is underflow, 1..Bins the
// interior, Bins+1 overflow. Caller holds d.mu (or is initializing).
func (d *DriftMonitor) bin(v float64) int {
	if v < d.lo {
		return 0
	}
	if v >= d.hi {
		return d.cfg.Bins + 1
	}
	return 1 + int(float64(d.cfg.Bins)*(v-d.lo)/(d.hi-d.lo))
}

// Observe records one served value into the rolling window. When the window
// wraps, the monitor re-evaluates automatically so the drift gauges stay
// fresh under sustained traffic even if nothing polls Evaluate. NaN and
// infinite values are skipped. Nil-safe.
func (d *DriftMonitor) Observe(v float64) {
	if d == nil || !isFinite(v) {
		return
	}
	d.cObserved.Add(1)
	d.mu.Lock()
	d.win[d.next] = v
	d.next++
	if d.next == len(d.win) {
		d.next = 0
	}
	if d.n < len(d.win) {
		d.n++
	}
	d.seen++
	if d.seen%int64(len(d.win)) == 0 {
		d.evaluateLocked()
	}
	d.mu.Unlock()
}

// Evaluate recomputes the drift status of the current window against the
// reference, updates the gauges, and returns the status. On the nil monitor
// it returns a zero status.
func (d *DriftMonitor) Evaluate() DriftStatus {
	if d == nil {
		return DriftStatus{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.evaluateLocked()
}

func (d *DriftMonitor) evaluateLocked() DriftStatus {
	d.cEvals.Add(1)
	st := DriftStatus{Name: d.name, WindowSamples: d.n, ReferenceSamples: d.refN}
	if d.refP != nil && d.n >= d.cfg.MinSamples {
		counts := make([]float64, d.cfg.Bins+2)
		for _, v := range d.win[:d.n] {
			counts[d.bin(v)]++
		}
		for i := range counts {
			counts[i] /= float64(d.n)
		}
		st.PSI = PSI(d.refP, counts)
		st.Degraded = st.PSI >= d.cfg.PSIThreshold
	}
	d.last = st
	d.gPSI.Set(st.PSI)
	if st.Degraded {
		d.gState.Set(1)
	} else {
		d.gState.Set(0)
	}
	return st
}

// Status returns the most recent evaluation without recomputing. Nil-safe.
func (d *DriftMonitor) Status() DriftStatus {
	if d == nil {
		return DriftStatus{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// PSI computes the population-stability index between two proportion vectors
// of equal length: sum_i (q_i - p_i) * ln(q_i / p_i), with empty cells floored
// at a small epsilon so a bin observed on one side only contributes a large
// finite term instead of infinity. Symmetric and >= 0; 0 iff p == q.
func PSI(p, q []float64) float64 {
	const eps = 1e-4
	var psi float64
	for i := range p {
		pi, qi := math.Max(p[i], eps), math.Max(q[i], eps)
		psi += (qi - pi) * math.Log(qi/pi)
	}
	return psi
}
