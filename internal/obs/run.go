package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Run bundles the observability state of one command invocation: the metrics
// registry (nil unless requested), the tracer (nil unless requested), the
// leveled logger, and the manifest bookkeeping. Commands build one via
// Options.Start, record through it (and through the globally installed
// accessors below), and call Finish on the way out.
type Run struct {
	Command string
	Started time.Time
	Reg     *Registry
	Tracer  *Tracer
	Log     *Logger

	metricsOut string
	mu         sync.Mutex
	config     map[string]any
	quality    map[string]float64
}

// NewRun assembles a Run directly — the constructor tests and bench harnesses
// use when there is no flag set to parse. Any of reg, tracer, lg may be nil.
func NewRun(command string, reg *Registry, tracer *Tracer, lg *Logger) *Run {
	return &Run{
		Command: command,
		Started: time.Now(),
		Reg:     reg,
		Tracer:  tracer,
		Log:     lg,
		config:  make(map[string]any),
		quality: make(map[string]float64),
	}
}

// SetConfig records one configuration entry for the manifest. Nil-safe.
func (r *Run) SetConfig(key string, v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.config[key] = v
	r.mu.Unlock()
}

// SetQuality records one final quality number for the manifest. Nil-safe.
func (r *Run) SetQuality(key string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.quality[key] = v
	r.mu.Unlock()
}

// Manifest assembles the run's manifest document.
func (r *Run) Manifest() *Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := r.Reg.Snapshot()
	m := &Manifest{
		Schema:      ManifestSchema,
		Command:     r.Command,
		Args:        append([]string(nil), os.Args[1:]...),
		StartedUTC:  r.Started.UTC().Format(time.RFC3339),
		DurationSec: time.Since(r.Started).Seconds(),
		Build:       collectBuildInfo(),
		Host:        collectHostInfo(),
		Metrics:     &snap,
	}
	if len(r.config) > 0 {
		m.Config = make(map[string]any, len(r.config))
		for k, v := range r.config {
			m.Config[k] = v
		}
	}
	if len(r.quality) > 0 {
		m.Quality = make(map[string]float64, len(r.quality))
		for k, v := range r.quality {
			m.Quality[k] = v
		}
	}
	if r.Tracer != nil {
		m.Trace = r.Tracer.Root()
	}
	return m
}

// WriteManifest writes the manifest JSON document to a file.
func (r *Run) WriteManifest(path string) error {
	data, err := json.MarshalIndent(r.Manifest(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Finish ends the run: it prints the span breakdown to stderr when tracing
// was requested, writes the manifest when -metrics-out was given, and
// uninstalls the run from the global accessors. Nil-safe, so commands can
// `defer run.Finish()` unconditionally.
func (r *Run) Finish() error {
	if r == nil {
		return nil
	}
	if Live() == r {
		Uninstall()
	}
	if r.Tracer != nil {
		fmt.Fprintln(os.Stderr, "-- trace --")
		r.Tracer.WriteTree(os.Stderr)
	}
	if r.metricsOut != "" {
		if err := r.WriteManifest(r.metricsOut); err != nil {
			return err
		}
	}
	return nil
}

// live is the globally installed run. Installed once at command start-up,
// before any instrumented structure is built, because hot-path handles are
// resolved at construction time (see the package comment).
var live atomic.Pointer[Run]

// Install makes r the globally visible run.
func Install(r *Run) { live.Store(r) }

// Uninstall clears the globally installed run (tests pair this with Install).
func Uninstall() { live.Store(nil) }

// Live returns the installed run, or nil when observability is off.
func Live() *Run { return live.Load() }

// Metrics returns the installed run's registry — nil (the no-op recorder)
// when no run is installed or the run records no metrics.
func Metrics() *Registry {
	if r := Live(); r != nil {
		return r.Reg
	}
	return nil
}

// Span begins a span on the installed run's tracer; no-op without one.
func Span(name string) func() {
	if r := Live(); r != nil && r.Tracer != nil {
		return r.Tracer.Span(name)
	}
	return spanNoop
}

// Infof logs a progress line through the installed run's logger. Library
// packages use this only for output that existed before the logger (there is
// none today); commands log through their own Run.Log.
func Infof(format string, args ...any) {
	if r := Live(); r != nil {
		r.Log.Infof(format, args...)
	}
}

// Debugf logs a diagnostic line through the installed run's logger; dropped
// unless a run with a -v logger is installed, which keeps default command
// output byte-identical to the pre-instrumentation binaries.
func Debugf(format string, args ...any) {
	if r := Live(); r != nil {
		r.Log.Debugf(format, args...)
	}
}

// Options is the command-line surface of the package: one field per flag
// registered by AddFlags.
type Options struct {
	MetricsOut string
	Trace      bool
	Quiet      bool
	Verbose    bool
	PprofAddr  string
}

// AddFlags registers the observability flags on a flag set:
//
//	-metrics-out <file>  enable the metrics registry; write the run manifest here
//	-trace               collect span timings; breakdown to stderr, tree into the manifest
//	-quiet               suppress progress output (results still print)
//	-v                   verbose diagnostics (cache statistics, per-phase detail)
//	-pprof <addr>        serve net/http/pprof on addr (e.g. localhost:6060)
func AddFlags(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write a run manifest (metrics, phase timings, config) to this file")
	fs.BoolVar(&o.Trace, "trace", false, "collect span-based phase timings; hierarchical breakdown on stderr")
	fs.BoolVar(&o.Quiet, "quiet", false, "suppress progress output")
	fs.BoolVar(&o.Verbose, "v", false, "verbose diagnostic output")
	fs.StringVar(&o.PprofAddr, "pprof", "", "serve net/http/pprof on this address (empty = off)")
	return o
}

// Start builds the run the options describe, installs it globally when it
// records anything (so library handle resolution sees it), and starts the
// pprof server when requested. Call after flag parsing and before building
// any instrumented structure.
func (o *Options) Start(command string) *Run {
	level := LevelInfo
	if o.Verbose {
		level = LevelDebug
	}
	if o.Quiet {
		level = LevelQuiet
	}
	var reg *Registry
	if o.MetricsOut != "" {
		reg = NewRegistry()
	}
	var tracer *Tracer
	if o.Trace {
		tracer = NewTracer()
	}
	run := NewRun(command, reg, tracer, NewLogger(os.Stdout, level))
	run.metricsOut = o.MetricsOut
	if reg != nil || tracer != nil || level != LevelInfo {
		Install(run)
	}
	if o.PprofAddr != "" {
		servePprof(o.PprofAddr)
	}
	return run
}
