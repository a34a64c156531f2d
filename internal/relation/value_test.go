package relation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() should be null")
	}
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int(42) = %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) = %v", v)
	}
	if v := Str("x"); v.Kind() != KindString || v.AsString() != "x" {
		t.Errorf("Str(x) = %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool(true) = %v", v)
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(2007).Equal(Float(2007)) {
		t.Error("Int(2007) should equal Float(2007)")
	}
	if Int(2007).Equal(Float(2007.5)) {
		t.Error("Int(2007) should not equal Float(2007.5)")
	}
	if Int(1).Equal(Str("1")) {
		t.Error("Int(1) should not equal Str(\"1\")")
	}
	if !Null().Equal(Null()) {
		t.Error("NULL = NULL under our value semantics")
	}
}

func TestValueCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(2), Float(2.5), -1},
		{Float(3), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueKeyAgreesWithEqual(t *testing.T) {
	pairs := []struct {
		a, b Value
	}{
		{Int(7), Float(7)},
		{Int(7), Int(7)},
		{Str("7"), Str("7")},
	}
	for _, p := range pairs {
		if p.a.Equal(p.b) != (p.a.Key() == p.b.Key()) {
			t.Errorf("Key/Equal disagree for %v vs %v", p.a, p.b)
		}
	}
	if Int(7).Key() == Str("7").Key() {
		t.Error("Int(7) and Str(\"7\") must have different keys")
	}
}

// TestValueKeyEqualAgreesWithKey compares KeyEqual with Key equality over
// every pair of a grid that mixes kinds, numbers of one magnitude in both
// numeric kinds, integers past 2^53 that share a float64 image, signed zeros
// and NaNs of different payloads.
func TestValueKeyEqualAgreesWithKey(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Bool(false),
		Str(""), Str("5"), Str("NULL"), Str("true"), Str("f:5"),
		Int(0), Int(5), Int(-5), Int(1000000), Int(1 << 53), Int(1<<53 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(5), Float(5.5), Float(1e6), Float(1 << 53),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)),
		Float(math.Inf(1)), Float(math.Inf(-1)),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := a.KeyEqual(b), a.Key() == b.Key(); got != want {
				t.Errorf("%s %v KeyEqual %s %v = %v, keys %q and %q", a.Kind(), a, b.Kind(), b, got, a.Key(), b.Key())
			}
		}
	}
}

func TestValueCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompareTransitiveOnFloats(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		va, vb, vc := Float(a), Float(b), Float(c)
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 {
			return va.Compare(vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Str("abc"), "abc"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "TEXT", KindBool: "BOOL",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
