package engine

import (
	"math/rand"
	"strings"
	"testing"

	"birds/internal/datalog"
	"birds/internal/sat"
	"birds/internal/value"
)

func testOracle() *sat.Config {
	return &sat.Config{MaxTuples: 3, RandomTrials: 600, ExhaustiveBudget: 20000, GuideBudget: 20000, Seed: 1}
}

func mustDecl(t *testing.T, src string) *datalog.RelDecl {
	t.Helper()
	p, err := datalog.Parse("source " + src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Sources[0]
}

func tup(vals ...any) value.Tuple {
	out := make(value.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = value.Int(int64(x))
		case string:
			out[i] = value.Str(x)
		default:
			panic("unsupported")
		}
	}
	return out
}

const unionView = `
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), not v(X).
+r1(X) :- v(X), not r1(X), not r2(X).
`

func setupUnion(t *testing.T, incremental bool) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r1(a:int).")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(mustDecl(t, "r2(a:int).")); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("r1", []value.Tuple{tup(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("r2", []value.Tuple{tup(2), tup(4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView(unionView, ViewOptions{Incremental: incremental, Oracle: testOracle()}); err != nil {
		t.Fatal(err)
	}
	return db
}

// The Example 3.1 scenario end to end, in both execution modes.
func TestUnionViewUpdate(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		db := setupUnion(t, incremental)
		v, err := db.Get("v")
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != 3 {
			t.Fatalf("initial view = %v", v)
		}
		// V becomes {1, 3, 4}: insert 3, delete 2.
		if err := db.Exec(Insert("v", value.Int(3))); err != nil {
			t.Fatal(err)
		}
		if err := db.Exec(Delete("v", Eq("a", value.Int(2)))); err != nil {
			t.Fatal(err)
		}
		r1, _ := db.Get("r1")
		r2, _ := db.Get("r2")
		if !r1.Equal(value.RelationOf(1, tup(1), tup(3))) {
			t.Errorf("incremental=%v: r1 = %v, want {1,3}", incremental, r1)
		}
		if !r2.Equal(value.RelationOf(1, tup(4))) {
			t.Errorf("incremental=%v: r2 = %v, want {4}", incremental, r2)
		}
		v, _ = db.Get("v")
		if !v.Equal(value.RelationOf(1, tup(1), tup(3), tup(4))) {
			t.Errorf("incremental=%v: v = %v", incremental, v)
		}
	}
}

func TestTransactionMergesStatements(t *testing.T) {
	db := setupUnion(t, false)
	// Insert 9 then delete it again within one transaction: net no-op on 9,
	// but the delete of 2 still applies (Algorithm 2 merging).
	err := db.Exec(
		Insert("v", value.Int(9)),
		Delete("v", Eq("a", value.Int(9))),
		Delete("v", Eq("a", value.Int(2))),
	)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := db.Get("r1")
	r2, _ := db.Get("r2")
	if r1.Contains(tup(9)) || r2.Contains(tup(9)) {
		t.Error("9 should not survive the transaction")
	}
	if r2.Contains(tup(2)) {
		t.Error("2 should be deleted")
	}
}

func TestUpdateStatement(t *testing.T) {
	db := setupUnion(t, false)
	// UPDATE v SET a = 7 WHERE a = 2.
	if err := db.Exec(Update("v", []Assignment{{Col: "a", Val: value.Int(7)}}, Eq("a", value.Int(2)))); err != nil {
		t.Fatal(err)
	}
	v, _ := db.Get("v")
	if v.Contains(tup(2)) || !v.Contains(tup(7)) {
		t.Errorf("update not applied: %v", v)
	}
	r1, _ := db.Get("r1")
	r2, _ := db.Get("r2")
	if !r1.Contains(tup(7)) && !r2.Contains(tup(7)) {
		t.Error("7 must be propagated to a source")
	}
}

func TestConstraintRejection(t *testing.T) {
	const view = `
source r(a:int).
view big(a:int).
_|_ :- big(X), not X > 2.
+r(X) :- big(X), not r(X).
-r(X) :- r(X), X > 2, not big(X).
`
	for _, incremental := range []bool{false, true} {
		db := NewDB()
		if err := db.CreateTable(mustDecl(t, "r(a:int).")); err != nil {
			t.Fatal(err)
		}
		if err := db.LoadTable("r", []value.Tuple{tup(1), tup(5)}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateView(view, ViewOptions{Incremental: incremental, Oracle: testOracle()}); err != nil {
			t.Fatal(err)
		}
		err := db.Exec(Insert("big", value.Int(1)))
		if err == nil {
			t.Fatalf("incremental=%v: out-of-range insert must be rejected", incremental)
		}
		if !strings.Contains(err.Error(), "constraint") {
			t.Errorf("incremental=%v: unexpected error %v", incremental, err)
		}
		// Nothing changed.
		r, _ := db.Get("r")
		if !r.Equal(value.RelationOf(1, tup(1), tup(5))) {
			t.Errorf("incremental=%v: rejected update must not change sources: %v", incremental, r)
		}
		big, _ := db.Get("big")
		if !big.Equal(value.RelationOf(1, tup(5))) {
			t.Errorf("incremental=%v: rejected update must not change the view: %v", incremental, big)
		}
		// A valid insert still works afterwards.
		if err := db.Exec(Insert("big", value.Int(9))); err != nil {
			t.Fatal(err)
		}
		r, _ = db.Get("r")
		if !r.Contains(tup(9)) {
			t.Errorf("incremental=%v: valid insert not propagated", incremental)
		}
	}
}

// The §3.3 case study cascade: residents1962 is defined over the updatable
// view residents, which dispatches to the base tables by gender.
func TestViewOverViewCascade(t *testing.T) {
	const residentsView = `
source male(e:string, b:date).
source female(e:string, b:date).
source others(e:string, b:date, g:string).
view residents(e:string, b:date, g:string).
+male(E,B) :- residents(E,B,'M'), not male(E,B), not others(E,B,'M').
-male(E,B) :- male(E,B), not residents(E,B,'M').
+female(E,B) :- residents(E,B,G), G = 'F', not female(E,B), not others(E,B,G).
-female(E,B) :- female(E,B), not residents(E,B,'F').
+others(E,B,G) :- residents(E,B,G), not G = 'M', not G = 'F', not others(E,B,G).
-others(E,B,G) :- others(E,B,G), not residents(E,B,G).
`
	const r1962View = `
source residents(e:string, b:date, g:string).
view residents1962(e:string, b:date, g:string).
_|_ :- residents1962(E,B,G), B > '1962-12-31'.
_|_ :- residents1962(E,B,G), B < '1962-01-01'.
+residents(E,B,G) :- residents1962(E,B,G), not residents(E,B,G).
-residents(E,B,G) :- residents(E,B,G), not B < '1962-01-01', not B > '1962-12-31', not residents1962(E,B,G).
`
	for _, incremental := range []bool{false, true} {
		db := NewDB()
		for _, d := range []string{
			"male(e:string, b:date).",
			"female(e:string, b:date).",
			"others(e:string, b:date, g:string).",
		} {
			if err := db.CreateTable(mustDecl(t, d)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.LoadTable("male", []value.Tuple{tup("bob", "1962-03-01"), tup("jim", "1950-01-01")}); err != nil {
			t.Fatal(err)
		}
		if err := db.LoadTable("female", []value.Tuple{tup("ann", "1962-07-15")}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateView(residentsView, ViewOptions{Incremental: incremental, Oracle: testOracle()}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateView(r1962View, ViewOptions{Incremental: incremental, Oracle: testOracle()}); err != nil {
			t.Fatal(err)
		}

		v, err := db.Get("residents1962")
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != 2 {
			t.Fatalf("incremental=%v: residents1962 = %v", incremental, v)
		}

		// Insert a 1962 female through the TOP view: must cascade through
		// residents into the female base table.
		if err := db.Exec(Insert("residents1962", value.Str("eva"), value.Str("1962-11-30"), value.Str("F"))); err != nil {
			t.Fatal(err)
		}
		female, _ := db.Get("female")
		if !female.Contains(tup("eva", "1962-11-30")) {
			t.Errorf("incremental=%v: eva must reach the female base table: %v", incremental, female)
		}
		res, _ := db.Get("residents")
		if !res.Contains(tup("eva", "1962-11-30", "F")) {
			t.Errorf("incremental=%v: residents not maintained: %v", incremental, res)
		}

		// Delete bob through the top view: cascades to male.
		if err := db.Exec(Delete("residents1962", Eq("e", value.Str("bob")))); err != nil {
			t.Fatal(err)
		}
		male, _ := db.Get("male")
		if male.Contains(tup("bob", "1962-03-01")) {
			t.Errorf("incremental=%v: bob should be deleted from male", incremental)
		}
		if !male.Contains(tup("jim", "1950-01-01")) {
			t.Errorf("incremental=%v: jim (not born 1962) must be untouched", incremental)
		}

		// Out-of-range inserts are rejected by the constraints.
		if err := db.Exec(Insert("residents1962", value.Str("tom"), value.Str("1980-01-01"), value.Str("M"))); err == nil {
			t.Errorf("incremental=%v: 1980 birthdate must violate the constraint", incremental)
		}
	}
}

func TestBaseTableUpdateMarksViewsDirty(t *testing.T) {
	db := setupUnion(t, false)
	if err := db.Exec(Insert("r1", value.Int(42))); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get("v")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Contains(tup(42)) {
		t.Errorf("view must reflect base-table insert after refresh: %v", v)
	}
	if err := db.Exec(Delete("r1", Eq("a", value.Int(42)))); err != nil {
		t.Fatal(err)
	}
	v, _ = db.Get("v")
	if v.Contains(tup(42)) {
		t.Errorf("view must reflect base-table delete: %v", v)
	}
}

func TestErrors(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r1(a:int).")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(mustDecl(t, "r1(a:int).")); err == nil {
		t.Error("duplicate table must fail")
	}
	if err := db.Exec(Insert("nope", value.Int(1))); err == nil {
		t.Error("unknown relation must fail")
	}
	if err := db.Exec(Insert("r1", value.Int(1)), Insert("other", value.Int(2))); err == nil {
		t.Error("multi-target transaction must fail")
	}
	if _, err := db.CreateView("view v(a:int).\n", ViewOptions{}); err == nil {
		t.Error("view without sources in the database must fail")
	}
	if _, err := db.CreateView(unionView, ViewOptions{SkipValidation: true}); err == nil {
		t.Error("SkipValidation without ExpectedGet must fail")
	}
	if _, err := db.Get("nope"); err == nil {
		t.Error("unknown relation read must fail")
	}
	if err := db.Exec(Delete("r1", Condition{Col: "zzz", Op: datalog.OpEq, Val: value.Int(1)})); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestSkipValidationWithExpectedGet(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r1(a:int).")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(mustDecl(t, "r2(a:int).")); err != nil {
		t.Fatal(err)
	}
	get := []*datalog.Rule{}
	for _, s := range []string{"v(X) :- r1(X).", "v(X) :- r2(X)."} {
		r, err := datalog.ParseRule(s)
		if err != nil {
			t.Fatal(err)
		}
		get = append(get, r)
	}
	if _, err := db.CreateView(unionView, ViewOptions{SkipValidation: true, ExpectedGet: get}); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("v", value.Int(8))); err != nil {
		t.Fatal(err)
	}
	r1, _ := db.Get("r1")
	if !r1.Contains(tup(8)) {
		t.Error("strategy should run without validation")
	}
}

func TestInvalidStrategyRejectedAtCreate(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r(a:int).")); err != nil {
		t.Fatal(err)
	}
	_, err := db.CreateView(`
source r(a:int).
view v(a:int).
+r(X) :- v(X).
-r(X) :- v(X), r(X).
`, ViewOptions{Oracle: testOracle()})
	if err == nil {
		t.Fatal("ill-defined strategy must be rejected at CREATE VIEW time")
	}
}

// Property: the two execution modes agree on random workloads.
func TestIncrementalMatchesFullOnRandomWorkload(t *testing.T) {
	mk := func(incremental bool) *DB {
		db := NewDB()
		if err := db.CreateTable(mustDecl(t, "r1(a:int).")); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable(mustDecl(t, "r2(a:int).")); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateView(unionView, ViewOptions{Incremental: incremental, Oracle: testOracle()}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	full, inc := mk(false), mk(true)
	rng := rand.New(rand.NewSource(77))
	for step := 0; step < 120; step++ {
		x := value.Int(int64(rng.Intn(12)))
		var stmt Statement
		if rng.Intn(2) == 0 {
			stmt = Insert("v", x)
		} else {
			stmt = Delete("v", Eq("a", x))
		}
		e1, e2 := full.Exec(stmt), inc.Exec(stmt)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("step %d: modes disagree on error: full=%v inc=%v", step, e1, e2)
		}
		for _, rel := range []string{"r1", "r2", "v"} {
			a, _ := full.Get(rel)
			b, _ := inc.Get(rel)
			if !a.Equal(b) {
				t.Fatalf("step %d: %s diverged:\nfull=%v\ninc=%v", step, rel, a, b)
			}
		}
	}
}

func TestRelationsListing(t *testing.T) {
	db := setupUnion(t, true)
	if err := db.LoadTable("r2", []value.Tuple{tup(6)}); err != nil {
		t.Fatal(err)
	}
	infos, err := db.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("want 3 relations, got %d", len(infos))
	}
	// Sorted: r1, r2, v.
	if infos[0].Name != "r1" || infos[1].Name != "r2" || infos[2].Name != "v" {
		t.Errorf("order wrong: %v", infos)
	}
	if infos[0].Kind != "table" || infos[2].Kind != "view" || !infos[2].Incremental {
		t.Errorf("kinds wrong: %+v", infos)
	}
	// The bulk load left v stale; counting it refreshes it.
	if infos[0].Rows != 1 || infos[1].Rows != 3 || infos[2].Rows != 4 || db.Stale("v") {
		t.Errorf("rows wrong or v still stale: %+v", infos)
	}
}
