package main

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/shapley"
)

func TestCheckAnswer(t *testing.T) {
	lineage := []relation.FactID{3, 7, 9}
	good := `{"query":"q","tuple":"(a)","facts":[{"id":7,"fact":"f","score":0.5},{"id":3,"fact":"f","score":0.25},{"id":9,"fact":"f","score":0.25}]}`
	vals, err := checkAnswer([]byte(good), lineage)
	if err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	if len(vals) != 3 || vals[7] != 0.5 || vals[9] != 0.25 {
		t.Errorf("scores = %v", vals)
	}
	for _, c := range []struct{ name, answer, want string }{
		{"fact dropped", `{"facts":[{"id":7,"score":0.5},{"id":3,"score":0.25}]}`, "lineage has 3"},
		{"fact repeated", `{"facts":[{"id":7,"score":0.5},{"id":7,"score":0.5},{"id":3,"score":0.25}]}`, "twice"},
		{"foreign fact", `{"facts":[{"id":7,"score":0.5},{"id":3,"score":0.25},{"id":4,"score":0.1}]}`, "not in the lineage"},
		{"rising score", `{"facts":[{"id":7,"score":0.25},{"id":3,"score":0.5},{"id":9,"score":0.1}]}`, "rises"},
		{"truncated", `{"facts":[{"id":7,"score":0.5}`, "decode"},
	} {
		if _, err := checkAnswer([]byte(c.answer), lineage); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestCorruptAnswerFailsTheRun(t *testing.T) {
	r := &runner{
		w:      workload{name: "test"},
		bodies: []body{{lineage: []relation.FactID{3, 7}}},
		res:    &result{Metrics: map[string]float64{}},
	}
	recs := []record{
		{status: 200, answer: []byte(`{"facts":[{"id":7,"score":0.5},{"id":3,"score":0.25}]}`)},
		{status: 200, answer: []byte(`{"facts":[{"id":7,"score":0.5}]}`)}, // fact 3 dropped
		{status: 429},
	}
	answers := map[int]shapley.Values{}
	r.check(recs, answers)
	if r.res.Attempted != 3 || r.res.Failed != 2 {
		t.Errorf("attempted %d, failed %d; want 3, 2", r.res.Attempted, r.res.Failed)
	}
	if !recs[0].ok || recs[1].ok || recs[2].ok {
		t.Errorf("ok flags = %v %v %v; want only the first", recs[0].ok, recs[1].ok, recs[2].ok)
	}
	if len(answers) != 1 {
		t.Errorf("%d bodies answered; want 1", len(answers))
	}
}
