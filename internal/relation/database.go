package relation

import (
	"fmt"
	"sort"
	"strings"
)

// FactID is the unique annotation of a database fact. IDs are assigned by the
// Database in insertion order and are dense, which lets provenance and
// Shapley code index facts with plain slices.
type FactID int32

// Fact is an annotated input tuple: its identity, owning relation and values.
type Fact struct {
	ID       FactID
	Relation string
	Values   []Value
}

// String renders the fact as "rel#id(v1, v2, ...)".
func (f *Fact) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d(", f.Relation, f.ID)
	for i, v := range f.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Relation is a named finite set of facts sharing a schema.
type Relation struct {
	Schema *Schema
	Facts  []*Fact
}

// Database is a disjoint union of relations plus a dense fact registry.
type Database struct {
	relations map[string]*Relation
	names     []string
	facts     []*Fact
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{relations: make(map[string]*Relation)}
}

// AddRelation registers an empty relation with the given schema.
func (d *Database) AddRelation(schema *Schema) (*Relation, error) {
	key := strings.ToLower(schema.Relation)
	if _, dup := d.relations[key]; dup {
		return nil, fmt.Errorf("relation: duplicate relation %q", schema.Relation)
	}
	r := &Relation{Schema: schema}
	d.relations[key] = r
	d.names = append(d.names, key)
	sort.Strings(d.names)
	return r, nil
}

// Insert appends a fact with the given values to the named relation, assigns
// it the next FactID and returns it.
func (d *Database) Insert(relationName string, values ...Value) (*Fact, error) {
	r, ok := d.relations[strings.ToLower(relationName)]
	if !ok {
		return nil, fmt.Errorf("relation: unknown relation %q", relationName)
	}
	if len(values) != r.Schema.Arity() {
		return nil, fmt.Errorf("relation: %q expects %d values, got %d",
			relationName, r.Schema.Arity(), len(values))
	}
	f := &Fact{ID: FactID(len(d.facts)), Relation: r.Schema.Relation, Values: values}
	d.facts = append(d.facts, f)
	r.Facts = append(r.Facts, f)
	return f, nil
}

// MustInsert is Insert that panics on error; for statically known data such
// as the paper's running example.
func (d *Database) MustInsert(relationName string, values ...Value) *Fact {
	f, err := d.Insert(relationName, values...)
	if err != nil {
		panic(err)
	}
	return f
}

// Relation returns the named relation (case-insensitive).
func (d *Database) Relation(name string) (*Relation, bool) {
	r, ok := d.relations[strings.ToLower(name)]
	return r, ok
}

// RelationNames returns the sorted (lower-cased) relation names.
func (d *Database) RelationNames() []string {
	out := make([]string, len(d.names))
	copy(out, d.names)
	return out
}

// Fact returns the fact with the given ID, or nil if out of range.
func (d *Database) Fact(id FactID) *Fact {
	if id < 0 || int(id) >= len(d.facts) {
		return nil
	}
	return d.facts[id]
}

// NumFacts returns the total number of facts across all relations.
func (d *Database) NumFacts() int { return len(d.facts) }
