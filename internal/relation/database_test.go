package relation

import (
	"strings"
	"testing"
)

func personSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("person",
		Column{Name: "name", Type: KindString},
		Column{Name: "age", Type: KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaRejectsDuplicateColumns(t *testing.T) {
	_, err := NewSchema("r", Column{Name: "a"}, Column{Name: "A"})
	if err == nil {
		t.Fatal("expected duplicate-column error (case-insensitive)")
	}
}

func TestSchemaColumnIndexCaseInsensitive(t *testing.T) {
	s := personSchema(t)
	if i, ok := s.ColumnIndex("NAME"); !ok || i != 0 {
		t.Errorf("ColumnIndex(NAME) = %d, %v", i, ok)
	}
	if i, ok := s.ColumnIndex("age"); !ok || i != 1 {
		t.Errorf("ColumnIndex(age) = %d, %v", i, ok)
	}
	if _, ok := s.ColumnIndex("missing"); ok {
		t.Error("ColumnIndex(missing) should not exist")
	}
	if s.Arity() != 2 {
		t.Errorf("Arity = %d", s.Arity())
	}
}

func TestSchemaString(t *testing.T) {
	s := personSchema(t)
	want := "person(name TEXT, age INT)"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
}

func TestDatabaseInsertAssignsDenseIDs(t *testing.T) {
	db := NewDatabase()
	if _, err := db.AddRelation(personSchema(t)); err != nil {
		t.Fatal(err)
	}
	f1, err := db.Insert("person", Str("alice"), Int(45))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := db.Insert("PERSON", Str("bob"), Int(30))
	if err != nil {
		t.Fatal(err)
	}
	if f1.ID != 0 || f2.ID != 1 {
		t.Errorf("IDs = %d, %d; want 0, 1", f1.ID, f2.ID)
	}
	if db.NumFacts() != 2 {
		t.Errorf("NumFacts = %d", db.NumFacts())
	}
	if db.Fact(0) != f1 || db.Fact(1) != f2 {
		t.Error("Fact() lookup mismatch")
	}
	if db.Fact(2) != nil || db.Fact(-1) != nil {
		t.Error("out-of-range Fact() should be nil")
	}
}

func TestDatabaseInsertErrors(t *testing.T) {
	db := NewDatabase()
	if _, err := db.AddRelation(personSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("nosuch", Str("x")); err == nil {
		t.Error("expected unknown-relation error")
	}
	if _, err := db.Insert("person", Str("x")); err == nil {
		t.Error("expected arity error")
	}
}

func TestDatabaseDuplicateRelation(t *testing.T) {
	db := NewDatabase()
	if _, err := db.AddRelation(personSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddRelation(personSchema(t)); err == nil {
		t.Error("expected duplicate-relation error")
	}
}

func TestFactString(t *testing.T) {
	db := NewDatabase()
	if _, err := db.AddRelation(personSchema(t)); err != nil {
		t.Fatal(err)
	}
	f := db.MustInsert("person", Str("alice"), Int(45))
	s := f.String()
	if !strings.Contains(s, "person#0") || !strings.Contains(s, "alice") {
		t.Errorf("Fact.String() = %q", s)
	}
}

func TestRelationNamesSorted(t *testing.T) {
	db := NewDatabase()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := db.AddRelation(MustSchema(name, Column{Name: "x", Type: KindInt})); err != nil {
			t.Fatal(err)
		}
	}
	names := db.RelationNames()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("RelationNames = %v, want %v", names, want)
		}
	}
}
