package pipeline

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func parse(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("pipeline-test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := AddFlags(fs, "imdb", 20, 6)
	return f, fs.Parse(args)
}

// TestFlagsRejectUnknownNames pins that a mistyped -db or -model fails while
// the flags parse, before any corpus is built, and that the error names the
// valid values.
func TestFlagsRejectUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", "IMDB"}, "imdb, academic"},
		{[]string{"-db", "Academic"}, "imdb, academic"},
		{[]string{"-db", ""}, "imdb, academic"},
		{[]string{"-model", "bse"}, "base, large, no-pretrain, small"},
	} {
		_, err := parse(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}

// TestModelOverrides pins the size and schedule overrides: left at their
// defaults they keep the preset exactly, -dim sets the FFN width to twice the
// model width, and -pepochs 0 turns pre-training off.
func TestModelOverrides(t *testing.T) {
	f, err := parse(t, "-model", "large", "-workers", "3")
	if err != nil {
		t.Fatal(err)
	}
	want := core.LargeConfig()
	want.Workers = 3
	if got := f.ModelConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("default overrides changed the preset:\n got %+v\nwant %+v", got, want)
	}

	f, err = parse(t, "-dim", "8", "-layers", "1", "-epochs", "0", "-samples", "40", "-pepochs", "0", "-ppairs", "16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := f.ModelConfig()
	if cfg.Dim != 8 || cfg.FFNHidden != 16 || cfg.Layers != 1 {
		t.Errorf("dim %d, FFN hidden %d, layers %d; want 8, 16, 1", cfg.Dim, cfg.FFNHidden, cfg.Layers)
	}
	if cfg.FinetuneEpochs != 0 || cfg.FinetuneSamplesPerEpoch != 40 || cfg.PretrainPairsPerEpoch != 16 {
		t.Errorf("schedule %d x %d, pre-training pairs %d; want 0 x 40, 16",
			cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch, cfg.PretrainPairsPerEpoch)
	}
	if cfg.PretrainEpochs != 0 || cfg.PretrainMetrics != nil {
		t.Errorf("-pepochs 0 left pre-training on: %d epochs over %v", cfg.PretrainEpochs, cfg.PretrainMetrics)
	}
}

// TestParseArgsRejectsStrayArguments pins the check behind Parse: the flag
// package stops at the first argument that is not a flag, so the flags after
// it never take effect, and the command must fail naming what was left over
// instead of running without them.
func TestParseArgsRejectsStrayArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		left string
	}{
		{[]string{"-queries", "10", "stray", "-load", "/nonexistent/model.gob"}, `["stray" "-load" "/nonexistent/model.gob"]`},
		{[]string{"stray"}, `["stray"]`},
		// A bool flag takes no separate value, so "amc" is left over.
		{[]string{"-fallback", "amc", "-db", "academic"}, `["amc" "-db" "academic"]`},
	} {
		fs := flag.NewFlagSet("pipeline-test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := AddFlags(fs, "imdb", 20, 6)
		fs.Bool("fallback", true, "a bool flag")
		err := ParseArgs(fs, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.left) {
			t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.left)
		}
		if f.load != "" || f.db.name != "imdb" {
			t.Errorf("%q: a flag after the stray argument took effect: -load %q, -db %q", tc.args, f.load, f.db.name)
		}
	}
	fs := flag.NewFlagSet("pipeline-test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	AddFlags(fs, "imdb", 20, 6)
	if err := ParseArgs(fs, []string{"-queries", "10", "-load", "m.gob"}); err != nil {
		t.Errorf("flags alone: %v", err)
	}
	if err := ParseArgs(fs, []string{"-bogus"}); err == nil {
		t.Error("an unknown flag parsed")
	}
}
