package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	orig := buildSmall(t, IMDB)
	var buf bytes.Buffer
	if err := orig.Export(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.DB.NumFacts() != orig.DB.NumFacts() {
		t.Fatalf("facts: %d vs %d", got.DB.NumFacts(), orig.DB.NumFacts())
	}
	if len(got.Queries) != len(orig.Queries) {
		t.Fatalf("queries: %d vs %d", len(got.Queries), len(orig.Queries))
	}
	for i, q := range orig.Queries {
		g := got.Queries[i]
		if g.SQL != q.SQL {
			t.Fatalf("query %d SQL differs", i)
		}
		if len(g.Result.Tuples) != len(q.Result.Tuples) {
			t.Fatalf("query %d result sizes differ", i)
		}
		if len(g.Cases) != len(q.Cases) {
			t.Fatalf("query %d case counts differ", i)
		}
		for ci, cs := range q.Cases {
			gc := g.Cases[ci]
			if gc.Tuple.Key() != cs.Tuple.Key() {
				t.Fatalf("query %d case %d tuple differs", i, ci)
			}
			for id, v := range cs.Gold {
				if math.Abs(gc.Gold[id]-v) > 1e-12 {
					t.Fatalf("query %d case %d fact %d: %v vs %v", i, ci, id, gc.Gold[id], v)
				}
			}
		}
	}
	// Splits preserved.
	for i := range orig.Train {
		if got.Train[i] != orig.Train[i] {
			t.Fatal("train split differs")
		}
	}
	// Stats identical.
	all := append(append(append([]int(nil), orig.Train...), orig.Dev...), orig.Test...)
	if got.Stats(all) != orig.Stats(all) {
		t.Fatalf("stats differ: %+v vs %+v", got.Stats(all), orig.Stats(all))
	}
}

// TestImportReadsOldConfigKeys imports an export whose config block has the
// keys files carried before the labeling-engine knobs were removed, with the
// fallback written as "amc": the file must import with the same labels and
// the fallback on.
func TestImportReadsOldConfigKeys(t *testing.T) {
	orig := buildSmall(t, IMDB)
	var buf bytes.Buffer
	if err := orig.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	file["config"] = map[string]any{
		"kind": 0, "seed": 1, "scale_base": 1, "num_queries": 12, "max_results": 300,
		"max_cases_per_query": 6, "max_lineage": 100, "rank_tuples": 8,
		"labeler": "exact", "label_samples": 64, "label_seed": 1, "label_fallback": "amc",
	}
	old, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Import(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	want := orig.Config
	want.LabelFallback = true
	if got.Config != want {
		t.Fatalf("config %+v, want %+v", got.Config, want)
	}
	var again bytes.Buffer
	if err := got.Export(&again); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(again.String(), `"label_fallback": "amc"`) {
		t.Error("re-export lost the fallback")
	}
	for i, q := range orig.Queries {
		for ci, cs := range q.Cases {
			gc := got.Queries[i].Cases[ci]
			if gc.Tuple.Key() != cs.Tuple.Key() || !reflect.DeepEqual(gc.Gold, cs.Gold) {
				t.Fatalf("query %d case %d differs after import", i, ci)
			}
		}
	}
}

func TestImportRejectsCorruptedFile(t *testing.T) {
	orig := buildSmall(t, IMDB)
	var buf bytes.Buffer
	if err := orig.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt a stored tuple key.
	s := strings.Replace(buf.String(), `"tuple_key": "`, `"tuple_key": "CORRUPTED`, 1)
	if _, err := Import(strings.NewReader(s)); err == nil {
		t.Error("expected integrity error for corrupted tuple key")
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := Import(strings.NewReader("not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := Import(strings.NewReader(`{"queries":[{"sql":"NOT SQL"}]}`)); err == nil {
		t.Error("expected parse error for bad SQL")
	}
	if _, err := Import(strings.NewReader(kindlessFact)); err == nil {
		t.Error("expected error for a fact with fewer kinds than values")
	}
}

// kindlessFact stores a value without its kind.
const kindlessFact = `{"schemas":[{"relation":"r","columns":[{"name":"a","type":1}]}],"facts":[{"relation":"r","values":["1"],"kinds":[]}]}`

// FuzzImport feeds arbitrary bytes to the corpus decoder: it must return a
// corpus or an error, never panic.
func FuzzImport(f *testing.F) {
	f.Add(`{"name":"tiny","schemas":[{"relation":"r","columns":[{"name":"a","type":1}]}],` +
		`"facts":[{"relation":"r","values":["1"],"kinds":[1]},{"relation":"r","values":["2"],"kinds":[1]}],` +
		`"queries":[{"id":0,"sql":"SELECT r.a FROM r","cases":[{"tuple_key":"f:1","shapley":{"0":1}}]}],` +
		`"splits":{"train":[0]}}`)
	f.Add(kindlessFact)
	f.Fuzz(func(t *testing.T, data string) {
		c, err := Import(strings.NewReader(data))
		if err == nil && c == nil {
			t.Fatal("Import returned neither a corpus nor an error")
		}
	})
}
