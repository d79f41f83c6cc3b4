package engine

import (
	"strings"
	"testing"

	"birds/internal/value"
)

// Failure injection: a strategy whose deltas collide inside one transaction
// must abort atomically without touching any relation.
func TestContradictoryPlanAborts(t *testing.T) {
	// Two sibling views over the same base table with opposing strategies
	// cannot run in one transaction — but a single strategy producing both
	// +r(t) and -r(t) is caught by the putback evaluation itself; here we
	// exercise the planner's cross-check by cascading into the same
	// relation from a diamond-shaped view stack.
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r(a:int).")); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("r", []value.Tuple{tup(1), tup(2)}); err != nil {
		t.Fatal(err)
	}
	// An identity view over r.
	idView := `
source r(a:int).
view w(a:int).
+r(X) :- w(X), not r(X).
-r(X) :- r(X), not w(X).
`
	if _, err := db.CreateView(idView, ViewOptions{Oracle: testOracle()}); err != nil {
		t.Fatal(err)
	}
	// A view over w that mirrors it; updating it cascades into w then r.
	topView := `
source w(a:int).
view top(a:int).
+w(X) :- top(X), not w(X).
-w(X) :- w(X), not top(X).
`
	if _, err := db.CreateView(topView, ViewOptions{Oracle: testOracle()}); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("top", value.Int(9))); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Rel("r")
	if !r.Contains(tup(9)) {
		t.Fatalf("two-level cascade failed: %v", r)
	}
	w, _ := db.Rel("w")
	topRel, _ := db.Rel("top")
	if !w.Contains(tup(9)) || !topRel.Contains(tup(9)) {
		t.Error("intermediate views not maintained")
	}
}

// A view whose materialization is stale because a sibling updated a shared
// base table must refresh transparently on read.
func TestSiblingViewsStayConsistent(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r(a:int).")); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("r", []value.Tuple{tup(1), tup(5)}); err != nil {
		t.Fatal(err)
	}
	small := `
source r(a:int).
view small(a:int).
_|_ :- small(X), not X < 3.
+r(X) :- small(X), not r(X).
-r(X) :- r(X), X < 3, not small(X).
`
	big := `
source r(a:int).
view big(a:int).
_|_ :- big(X), X < 3.
+r(X) :- big(X), not r(X).
-r(X) :- r(X), not X < 3, not big(X).
`
	if _, err := db.CreateView(small, ViewOptions{Oracle: testOracle()}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView(big, ViewOptions{Oracle: testOracle()}); err != nil {
		t.Fatal(err)
	}
	// Update through big; small must see the change on its next read (it
	// shares the base table).
	if err := db.Exec(Insert("big", value.Int(7))); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("small", value.Int(0))); err != nil {
		t.Fatal(err)
	}
	smallRel, err := db.Rel("small")
	if err != nil {
		t.Fatal(err)
	}
	bigRel, err := db.Rel("big")
	if err != nil {
		t.Fatal(err)
	}
	if !smallRel.Equal(value.RelationOf(1, tup(0), tup(1))) {
		t.Errorf("small = %v, want {0,1}", smallRel)
	}
	if !bigRel.Equal(value.RelationOf(1, tup(5), tup(7))) {
		t.Errorf("big = %v, want {5,7}", bigRel)
	}
	r, _ := db.Rel("r")
	if !r.Equal(value.RelationOf(1, tup(0), tup(1), tup(5), tup(7))) {
		t.Errorf("r = %v", r)
	}
}

// Rejections deep in a cascade must leave every level untouched.
func TestCascadeConstraintRejectionAtomic(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r(a:int).")); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("r", []value.Tuple{tup(5)}); err != nil {
		t.Fatal(err)
	}
	// Lower view rejects values > 100 (the deletion rule only touches the
	// in-range tuples the view can legitimately drop).
	lower := `
source r(a:int).
view w(a:int).
_|_ :- w(X), X > 100.
+r(X) :- w(X), not r(X).
-r(X) :- r(X), not X > 100, not w(X).
`
	upper := `
source w(a:int).
view top(a:int).
+w(X) :- top(X), not w(X).
-w(X) :- w(X), not top(X).
`
	if _, err := db.CreateView(lower, ViewOptions{Oracle: testOracle()}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView(upper, ViewOptions{Oracle: testOracle()}); err != nil {
		t.Fatal(err)
	}
	err := db.Exec(Insert("top", value.Int(500)))
	if err == nil {
		t.Fatal("lower-level constraint must reject the cascade")
	}
	if !strings.Contains(err.Error(), "constraint") {
		t.Errorf("unexpected error: %v", err)
	}
	for _, rel := range []string{"r", "w", "top"} {
		got, _ := db.Rel(rel)
		if !got.Equal(value.RelationOf(1, tup(5))) {
			t.Errorf("%s = %v after rejected cascade, want {5}", rel, got)
		}
	}
}

// Algorithm 2 corner cases: update-then-delete of the same row, an update
// that rewrites a row back to itself, and statements that match the
// transaction's own earlier inserts and deletes.
func TestTransactionAlgorithm2Corners(t *testing.T) {
	db := setupUnion(t, false)
	// Update 2 -> 7, then delete 7: net effect is only the deletion of 2.
	if err := db.Exec(
		Update("v", []Assignment{{Col: "a", Val: value.Int(7)}}, Eq("a", value.Int(2))),
		Delete("v", Eq("a", value.Int(7))),
	); err != nil {
		t.Fatal(err)
	}
	v, _ := db.Rel("v")
	if v.Contains(tup(2)) || v.Contains(tup(7)) {
		t.Errorf("v = %v", v)
	}
	// Identity update: no change at all.
	before, _ := db.Rel("r1")
	before = before.Clone()
	if err := db.Exec(Update("v", []Assignment{{Col: "a", Val: value.Int(1)}}, Eq("a", value.Int(1)))); err != nil {
		t.Fatal(err)
	}
	after, _ := db.Rel("r1")
	if !after.Equal(before) {
		t.Errorf("identity update changed r1: %v -> %v", before, after)
	}

	// Statements that see the transaction's own earlier effects, from the
	// fixture state v = r1 ∪ r2 = {1} ∪ {2, 4}, in both maintenance modes.
	ints := func(xs ...int) *value.Relation {
		r := value.NewRelation(1)
		for _, x := range xs {
			r.Add(tup(x))
		}
		return r
	}
	for _, tc := range []struct {
		name      string
		txn       []Statement
		v, r1, r2 *value.Relation
	}{
		{"insert-then-delete nets to nothing", []Statement{
			Insert("v", value.Int(9)),
			Delete("v", Eq("a", value.Int(9))),
		}, ints(1, 2, 4), ints(1), ints(2, 4)},
		{"delete-then-reinsert nets to nothing", []Statement{
			Delete("v", Eq("a", value.Int(2))),
			Insert("v", value.Int(2)),
		}, ints(1, 2, 4), ints(1), ints(2, 4)},
		{"update matches a row inserted earlier", []Statement{
			Insert("v", value.Int(7)),
			Update("v", []Assignment{{Col: "a", Val: value.Int(8)}}, Eq("a", value.Int(7))),
		}, ints(1, 2, 4, 8), ints(1, 8), ints(2, 4)},
	} {
		for _, incremental := range []bool{false, true} {
			db := setupUnion(t, incremental)
			if err := db.Exec(tc.txn...); err != nil {
				t.Fatalf("%s (incremental=%v): %v", tc.name, incremental, err)
			}
			for rel, want := range map[string]*value.Relation{"v": tc.v, "r1": tc.r1, "r2": tc.r2} {
				if got, _ := db.Get(rel); !got.Equal(want) {
					t.Errorf("%s (incremental=%v): %s = %v, want %v", tc.name, incremental, rel, got, want)
				}
			}
		}
	}
}

// DELETE with a non-equality WHERE falls back to a scan and still works.
func TestDeleteWithRangeCondition(t *testing.T) {
	db := setupUnion(t, true)
	if err := db.Exec(Delete("v", Condition{Col: "a", Op: 3 /* OpGt */, Val: value.Int(1)})); err != nil {
		t.Fatal(err)
	}
	v, _ := db.Rel("v")
	if v.Len() != 1 || !v.Contains(tup(1)) {
		t.Errorf("v = %v, want {1}", v)
	}
}

// Repeated equality conditions on the same column are legal; contradictory
// ones match nothing.
func TestRepeatedEqualityConditions(t *testing.T) {
	db := setupUnion(t, false)
	if err := db.Exec(Delete("v", Eq("a", value.Int(2)), Eq("a", value.Int(2)))); err != nil {
		t.Fatal(err)
	}
	v, _ := db.Rel("v")
	if v.Contains(tup(2)) {
		t.Error("duplicate equality condition should still match")
	}
	before, _ := db.Rel("v")
	before = before.Clone()
	if err := db.Exec(Delete("v", Eq("a", value.Int(1)), Eq("a", value.Int(4)))); err != nil {
		t.Fatal(err)
	}
	after, _ := db.Rel("v")
	if !after.Equal(before) {
		t.Error("contradictory equalities should match nothing")
	}
}
