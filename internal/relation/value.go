// Package relation implements the typed in-memory relational model used
// throughout the repository: values, schemas, annotated facts, relations and
// databases.
//
// Following the convention of the Shapley-for-query-answering literature, the
// word "fact" refers to a tuple of the input database (the objects whose
// contribution is measured) while "tuple" refers to a row of a query result.
// Every fact carries a unique annotation (its FactID) that provenance tracking
// threads through query evaluation.
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the value types supported by the engine. The SPJU fragment
// of the paper only requires integers and strings (plus floats for derived
// statistics), so the model is deliberately small.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String wraps a string. (Constructor; the fmt.Stringer method is Text.)
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool wraps a bool.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it is only meaningful for KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the numeric payload as float64 for KindInt and KindFloat.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload; it is only meaningful for KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload; it is only meaningful for KindBool.
func (v Value) AsBool() bool { return v.b }

// String renders the value the way it would appear in a SQL literal.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Equal reports deep equality of two values. Int and Float compare
// numerically so that a generated literal 2007 matches a FLOAT column.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindInt:
			return v.i == o.i
		case KindFloat:
			return v.f == o.f
		case KindString:
			return v.s == o.s
		case KindBool:
			return v.b == o.b
		}
	}
	if v.isNumeric() && o.isNumeric() {
		return v.AsFloat() == o.AsFloat()
	}
	return false
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before everything; cross-kind non-numeric comparisons order by
// kind so that sorting is total.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.isNumeric() && o.isNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case v.b == o.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// Key returns a string usable as a map key that distinguishes values of
// different kinds and payloads. Numeric values of equal magnitude map to the
// same key so Equal and Key agree.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "n:"
	case KindInt:
		return "f:" + strconv.FormatFloat(float64(v.i), 'g', -1, 64)
	case KindFloat:
		return "f:" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "s:" + v.s
	case KindBool:
		if v.b {
			return "b:1"
		}
		return "b:0"
	default:
		return "?"
	}
}

// KeyEqual reports whether v.Key() == o.Key() without building either key.
// Key renders a number by its float64 image in shortest form, which tells
// every two float64 values apart except NaNs, so numbers compare by their
// bits: 0 and -0 differ, and any NaN equals any NaN.
func (v Value) KeyEqual(o Value) bool {
	if v.isNumeric() && o.isNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	default:
		return true
	}
}
