package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/sqlparse"
)

// The export format mirrors how DBShap is distributed: the database instance,
// the query log with its split assignment, and the (query, output tuple,
// fact, Shapley value) quartets. Queries are re-evaluated on import (the
// engine is deterministic), which both reconstructs provenance and validates
// the file's integrity.

type exportFile struct {
	Name    string           `json:"name"`
	Config  exportConfig     `json:"config"`
	Schemas []exportSchema   `json:"schemas"`
	Facts   []exportFact     `json:"facts"`
	Queries []exportQuery    `json:"queries"`
	Splits  map[string][]int `json:"splits"`
}

type exportConfig struct {
	Kind             int     `json:"kind"`
	Seed             int64   `json:"seed"`
	ScaleBase        float64 `json:"scale_base"`
	NumQueries       int     `json:"num_queries"`
	MaxCasesPerQuery int     `json:"max_cases_per_query"`
	// LabelFallback is "amc" when the fallback sampler labeled the tuples
	// exact labeling refuses, and absent when they were dropped. Older files
	// also carry max_results, max_lineage, rank_tuples, labeler,
	// label_samples and label_seed; Import ignores them.
	LabelFallback string `json:"label_fallback,omitempty"`
}

type exportSchema struct {
	Relation string         `json:"relation"`
	Columns  []exportColumn `json:"columns"`
}

type exportColumn struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

type exportFact struct {
	Relation string   `json:"relation"`
	Values   []string `json:"values"`
	Kinds    []uint8  `json:"kinds"`
}

type exportQuery struct {
	ID    int          `json:"id"`
	SQL   string       `json:"sql"`
	Cases []exportCase `json:"cases"`
}

type exportCase struct {
	TupleKey string             `json:"tuple_key"`
	Shapley  map[string]float64 `json:"shapley"` // fact ID -> value
}

// Export writes the corpus in the DBShap-style JSON format.
func (c *Corpus) Export(w io.Writer) error {
	f := exportFile{
		Name: c.Config.Kind.String(),
		Config: exportConfig{
			Kind:             int(c.Config.Kind),
			Seed:             c.Config.Seed,
			ScaleBase:        c.Config.Scale,
			NumQueries:       c.Config.NumQueries,
			MaxCasesPerQuery: c.Config.MaxCasesPerQuery,
		},
		Splits: map[string][]int{"train": c.Train, "dev": c.Dev, "test": c.Test},
	}
	if c.Config.LabelFallback {
		f.Config.LabelFallback = "amc"
	}
	for _, name := range c.DB.RelationNames() {
		rel, _ := c.DB.Relation(name)
		es := exportSchema{Relation: rel.Schema.Relation}
		for _, col := range rel.Schema.Columns {
			es.Columns = append(es.Columns, exportColumn{Name: col.Name, Type: uint8(col.Type)})
		}
		f.Schemas = append(f.Schemas, es)
	}
	for i := 0; i < c.DB.NumFacts(); i++ {
		fact := c.DB.Fact(relation.FactID(i))
		ef := exportFact{Relation: fact.Relation}
		for _, v := range fact.Values {
			ef.Values = append(ef.Values, v.String())
			ef.Kinds = append(ef.Kinds, uint8(v.Kind()))
		}
		f.Facts = append(f.Facts, ef)
	}
	for _, q := range c.Queries {
		eq := exportQuery{ID: q.ID, SQL: q.SQL}
		for _, cs := range q.Cases {
			ec := exportCase{TupleKey: cs.Tuple.Key(), Shapley: make(map[string]float64, len(cs.Gold))}
			ids := make([]relation.FactID, 0, len(cs.Gold))
			for id := range cs.Gold {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			for _, id := range ids {
				ec.Shapley[strconv.Itoa(int(id))] = cs.Gold[id]
			}
			eq.Cases = append(eq.Cases, ec)
		}
		f.Queries = append(f.Queries, eq)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// Import reconstructs a corpus from the export format: it rebuilds the
// database fact-for-fact (preserving fact IDs), re-evaluates every query to
// recover provenance, and re-attaches the stored Shapley labels to the stored
// output tuples. It fails if a stored tuple or fact no longer matches the
// re-evaluation — a corrupted or hand-edited file.
func Import(r io.Reader) (*Corpus, error) {
	var f exportFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	db := relation.NewDatabase()
	for _, es := range f.Schemas {
		cols := make([]relation.Column, len(es.Columns))
		for i, ec := range es.Columns {
			cols[i] = relation.Column{Name: ec.Name, Type: relation.Kind(ec.Type)}
		}
		schema, err := relation.NewSchema(es.Relation, cols...)
		if err != nil {
			return nil, err
		}
		if _, err := db.AddRelation(schema); err != nil {
			return nil, err
		}
	}
	for i, ef := range f.Facts {
		if len(ef.Kinds) != len(ef.Values) {
			return nil, fmt.Errorf("dataset: fact %d: %d kinds for %d values", i, len(ef.Kinds), len(ef.Values))
		}
		values := make([]relation.Value, len(ef.Values))
		for j, s := range ef.Values {
			v, err := parseValue(s, relation.Kind(ef.Kinds[j]))
			if err != nil {
				return nil, fmt.Errorf("dataset: fact %d: %w", i, err)
			}
			values[j] = v
		}
		fact, err := db.Insert(ef.Relation, values...)
		if err != nil {
			return nil, fmt.Errorf("dataset: fact %d: %w", i, err)
		}
		if int(fact.ID) != i {
			return nil, fmt.Errorf("dataset: fact ID drift: got %d, want %d", fact.ID, i)
		}
	}
	c := &Corpus{
		Config: Config{
			Kind:             Kind(f.Config.Kind),
			Seed:             f.Config.Seed,
			Scale:            f.Config.ScaleBase,
			NumQueries:       f.Config.NumQueries,
			MaxCasesPerQuery: f.Config.MaxCasesPerQuery,
			LabelFallback:    f.Config.LabelFallback != "",
		},
		DB:    db,
		Train: f.Splits["train"],
		Dev:   f.Splits["dev"],
		Test:  f.Splits["test"],
	}
	for _, eq := range f.Queries {
		q, err := sqlparse.Parse(eq.SQL)
		if err != nil {
			return nil, fmt.Errorf("dataset: query %d: %w", eq.ID, err)
		}
		res, err := engine.Evaluate(db, q)
		if err != nil {
			return nil, fmt.Errorf("dataset: query %d: %w", eq.ID, err)
		}
		byKey := make(map[string]*engine.OutputTuple, len(res.Tuples))
		for _, t := range res.Tuples {
			byKey[t.Key()] = t
		}
		entry := &QueryEntry{
			ID:        eq.ID,
			SQL:       eq.SQL,
			Query:     q,
			Result:    res,
			Witness:   res.WitnessKeys(),
			NumTables: len(q.Tables()),
		}
		for _, t := range res.Tuples {
			entry.TotalFacts += len(t.Lineage())
		}
		for _, ec := range eq.Cases {
			t, ok := byKey[ec.TupleKey]
			if !ok {
				return nil, fmt.Errorf("dataset: query %d: stored tuple %q not reproduced by re-evaluation", eq.ID, ec.TupleKey)
			}
			gold := make(shapley.Values, len(ec.Shapley))
			for idStr, v := range ec.Shapley {
				id, err := strconv.Atoi(idStr)
				if err != nil {
					return nil, fmt.Errorf("dataset: query %d: bad fact id %q", eq.ID, idStr)
				}
				if db.Fact(relation.FactID(id)) == nil {
					return nil, fmt.Errorf("dataset: query %d: unknown fact %d", eq.ID, id)
				}
				gold[relation.FactID(id)] = v
			}
			entry.Cases = append(entry.Cases, Case{Tuple: t, Gold: gold})
		}
		c.Queries = append(c.Queries, entry)
	}
	return c, nil
}

func parseValue(s string, kind relation.Kind) (relation.Value, error) {
	switch kind {
	case relation.KindNull:
		return relation.Null(), nil
	case relation.KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return relation.Null(), err
		}
		return relation.Int(i), nil
	case relation.KindFloat:
		fl, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return relation.Null(), err
		}
		return relation.Float(fl), nil
	case relation.KindBool:
		return relation.Bool(s == "true"), nil
	default:
		return relation.Str(s), nil
	}
}
