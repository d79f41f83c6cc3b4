package value

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int(42) round-trip failed: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) round-trip failed: %v", v)
	}
	if v := Str("hi"); v.Kind() != KindString || v.AsString() != "hi" {
		t.Errorf("Str round-trip failed: %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool round-trip failed: %v", v)
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("AsFloat should widen ints")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("AsInt on string", func() { Str("x").AsInt() })
	mustPanic("AsString on int", func() { Int(1).AsString() })
	mustPanic("AsBool on int", func() { Int(1).AsBool() })
	mustPanic("AsFloat on string", func() { Str("x").AsFloat() })
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1), true},
		{Float(1.5), Int(1), false},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Str("1"), Int(1), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal not symmetric on %v, %v", c.a, c.b)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(3), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("1962-01-01"), Str("1962-12-31"), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if !Int(1).Less(Int(2)) || Int(2).Less(Int(1)) {
		t.Error("Less misbehaves")
	}
}

func TestValueCompareTotalOrderAcrossKinds(t *testing.T) {
	vals := []Value{Null(), Int(3), Float(1.5), Str("x"), Bool(true)}
	for _, a := range vals {
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("Compare not antisymmetric on %v, %v", a, b)
			}
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Str("ab"), "'ab'"},
		{Str("it's"), "'it''s'"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Null(), "null"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if Bool(true).SQL() != "TRUE" || Bool(false).SQL() != "FALSE" {
		t.Error("SQL boolean literals wrong")
	}
	if Str("a").SQL() != "'a'" {
		t.Error("SQL string literal wrong")
	}
}

func TestTupleKeyAgreesWithEqual(t *testing.T) {
	f := func(a1, b1 int64, s1, s2 string) bool {
		t1 := Tuple{Int(a1), Str(s1)}
		t2 := Tuple{Int(b1), Str(s2)}
		return (t1.Key() == t2.Key()) == t1.Equal(t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Numeric widening: Int(1) and Float(1) must collide.
	if (Tuple{Int(1)}).Key() != (Tuple{Float(1)}).Key() {
		t.Error("Int(1) and Float(1) should share a key")
	}
	// Injection check: string boundaries must not be confusable.
	if (Tuple{Str("ab"), Str("c")}).Key() == (Tuple{Str("a"), Str("bc")}).Key() {
		t.Error("tuple key is not injective across string boundaries")
	}
}

func TestTupleCompareAndClone(t *testing.T) {
	a := Tuple{Int(1), Str("x")}
	b := Tuple{Int(1), Str("y")}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("tuple compare wrong")
	}
	short := Tuple{Int(1)}
	if short.Compare(a) != -1 || a.Compare(short) != 1 {
		t.Error("shorter tuples must order first")
	}
	c := a.Clone()
	c[0] = Int(9)
	if a[0].AsInt() != 1 {
		t.Error("Clone must not share storage")
	}
	if a.String() != "(1, 'x')" {
		t.Errorf("tuple String = %q", a.String())
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation(2)
	if r.Arity() != 2 || !r.Empty() {
		t.Fatal("fresh relation wrong")
	}
	t1 := Tuple{Int(1), Str("a")}
	if !r.Add(t1) || r.Add(t1) {
		t.Error("Add change-reporting wrong")
	}
	if r.Len() != 1 || !r.Contains(t1) {
		t.Error("Contains/Len wrong")
	}
	if !r.Remove(t1) || r.Remove(t1) {
		t.Error("Remove change-reporting wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	r.Add(Tuple{Int(1)})
}

// Find returns the stored tuple, whose values may be of another numeric
// kind than the probe's, both below and above the hash-index threshold.
func TestRelationFindReturnsStored(t *testing.T) {
	for _, n := range []int{1, indexMinLen + 1} {
		r := NewRelation(2)
		for i := 0; i < n; i++ {
			r.Add(Tuple{Int(int64(i)), Str("a")})
		}
		got, ok := r.Find(Tuple{Float(0), Str("a")})
		if !ok || got[0].Kind() != KindInt {
			t.Errorf("n=%d: Find = %v, %v; want the stored Int tuple", n, got, ok)
		}
		if got, ok := r.Find(Tuple{Int(0), Str("b")}); ok {
			t.Errorf("n=%d: Find of an absent tuple = %v", n, got)
		}
	}
}

func TestRelationSetOps(t *testing.T) {
	mk := func(vals ...int64) *Relation {
		r := NewRelation(1)
		for _, v := range vals {
			r.Add(Tuple{Int(v)})
		}
		return r
	}
	a := mk(1, 2, 3)
	b := mk(2, 3, 4)

	if got := a.Intersect(b); got.Len() != 2 || !got.Contains(Tuple{Int(2)}) || !got.Contains(Tuple{Int(3)}) {
		t.Errorf("Intersect wrong: %v", got)
	}
	if got := a.Minus(b); got.Len() != 1 || !got.Contains(Tuple{Int(1)}) {
		t.Errorf("Minus wrong: %v", got)
	}
	c := a.Clone()
	if !c.UnionWith(b) || c.Len() != 4 {
		t.Errorf("UnionWith wrong: %v", c)
	}
	if c.UnionWith(b) {
		t.Error("idempotent union should report no change")
	}
	d := a.Clone()
	if !d.SubtractAll(b) || d.Len() != 1 {
		t.Errorf("SubtractAll wrong: %v", d)
	}
	if d.SubtractAll(b) {
		t.Error("idempotent subtract should report no change")
	}
	if !a.Equal(mk(3, 2, 1)) || a.Equal(b) || a.Equal(mk(1, 2)) {
		t.Error("Equal wrong")
	}
}

func TestRelationSortedDeterministic(t *testing.T) {
	r := NewRelation(1)
	vals := rand.New(rand.NewSource(7)).Perm(50)
	for _, v := range vals {
		r.Add(Tuple{Int(int64(v))})
	}
	s := r.Sorted()
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Compare(s[j]) < 0 }) {
		t.Error("Sorted not sorted")
	}
	if r.String() == "" || r.String()[0] != '{' {
		t.Error("String rendering wrong")
	}
}

func TestRelationCloneIndependence(t *testing.T) {
	r := RelationOf(1, Tuple{Int(1)})
	c := r.Clone()
	c.Add(Tuple{Int(2)})
	if r.Len() != 1 || c.Len() != 2 {
		t.Error("Clone must be independent")
	}
}

// Property: for random relations A, B over a small domain,
// (A \ B) ∪ (A ∩ B) == A.
func TestRelationPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a, b := NewRelation(1), NewRelation(1)
		for i := 0; i < 10; i++ {
			if rng.Intn(2) == 0 {
				a.Add(Tuple{Int(int64(rng.Intn(6)))})
			}
			if rng.Intn(2) == 0 {
				b.Add(Tuple{Int(int64(rng.Intn(6)))})
			}
		}
		got := a.Minus(b)
		got.UnionWith(a.Intersect(b))
		if !got.Equal(a) {
			t.Fatalf("partition property violated: A=%v B=%v got=%v", a, b, got)
		}
	}
}
