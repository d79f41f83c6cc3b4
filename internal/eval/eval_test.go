package eval

import (
	"math/rand"
	"strings"
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

func mustProg(t *testing.T, src string) *datalog.Program {
	t.Helper()
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustEval(t *testing.T, src string) *Evaluator {
	t.Helper()
	e, err := New(mustProg(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func ints(vals ...int64) *value.Relation {
	r := value.NewRelation(1)
	for _, v := range vals {
		r.Add(value.Tuple{value.Int(v)})
	}
	return r
}

func pairs(vals ...[2]int64) *value.Relation {
	r := value.NewRelation(2)
	for _, v := range vals {
		r.Add(value.Tuple{value.Int(v[0]), value.Int(v[1])})
	}
	return r
}

// Example 3.1 of the paper: the union view putback program, with the exact
// instance from the paper.
func TestExample31UnionPut(t *testing.T) {
	e := mustEval(t, `
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), not v(X).
+r1(X) :- v(X), not r1(X), not r2(X).
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r1"), ints(1))
	db.Set(datalog.Pred("r2"), ints(2, 4))
	db.Set(datalog.Pred("v"), ints(1, 3, 4))

	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	if got := db.Rel(datalog.Ins("r1")); !got.Equal(ints(3)) {
		t.Errorf("Δ+r1 = %v, want {3}", got)
	}
	if got := db.Rel(datalog.Del("r2")); !got.Equal(ints(2)) {
		t.Errorf("Δ-r2 = %v, want {2}", got)
	}
	if got := db.Rel(datalog.Del("r1")); !got.Empty() {
		t.Errorf("Δ-r1 = %v, want empty", got)
	}

	del, ins, err := ApplyDeltas(db, e.Program().Sources)
	if err != nil {
		t.Fatal(err)
	}
	if del != 1 || ins != 1 {
		t.Errorf("applied %d deletions, %d insertions; want 1, 1", del, ins)
	}
	// S' = {r1(1), r1(3), r2(4)} as in the paper.
	if got := db.Rel(datalog.Pred("r1")); !got.Equal(ints(1, 3)) {
		t.Errorf("r1' = %v, want {1, 3}", got)
	}
	if got := db.Rel(datalog.Pred("r2")); !got.Equal(ints(4)) {
		t.Errorf("r2' = %v, want {4}", got)
	}
}

func TestAuxiliaryIDBAndStrata(t *testing.T) {
	// m is an intermediate IDB relation used under negation downstream.
	e := mustEval(t, `
source r(a:int, b:int).
view v(a:int, b:int).
m(X,Y) :- r(X,Y), Y > 2.
-r(X,Y) :- m(X,Y), not v(X,Y).
+r(X,Y) :- v(X,Y), not r(X,Y).
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), pairs([2]int64{1, 1}, [2]int64{2, 3}, [2]int64{3, 9}))
	db.Set(datalog.Pred("v"), pairs([2]int64{2, 3}))
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	if got := db.Rel(datalog.Pred("m")); !got.Equal(pairs([2]int64{2, 3}, [2]int64{3, 9})) {
		t.Errorf("m = %v", got)
	}
	if got := db.Rel(datalog.Del("r")); !got.Equal(pairs([2]int64{3, 9})) {
		t.Errorf("Δ-r = %v, want {(3,9)}", got)
	}
}

func TestConstantsInAtomsAndEqualities(t *testing.T) {
	e := mustEval(t, `
source male(e:string).
source female(e:string).
view people(e:string, g:string).
+male(E) :- people(E,'M'), not male(E).
+female(E) :- people(E,G), G = 'F', not female(E).
`)
	db := NewDatabase()
	db.Set(datalog.Pred("male"), value.RelationOf(1, value.Tuple{value.Str("bob")}))
	db.Set(datalog.Pred("female"), value.NewRelation(1))
	people := value.NewRelation(2)
	people.Add(value.Tuple{value.Str("bob"), value.Str("M")})
	people.Add(value.Tuple{value.Str("joe"), value.Str("M")})
	people.Add(value.Tuple{value.Str("ann"), value.Str("F")})
	db.Set(datalog.Pred("people"), people)

	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	if got := db.Rel(datalog.Ins("male")); got.Len() != 1 || !got.Contains(value.Tuple{value.Str("joe")}) {
		t.Errorf("Δ+male = %v, want {joe}", got)
	}
	if got := db.Rel(datalog.Ins("female")); got.Len() != 1 || !got.Contains(value.Tuple{value.Str("ann")}) {
		t.Errorf("Δ+female = %v, want {ann}", got)
	}
}

func TestEqualityBindingChains(t *testing.T) {
	e := mustEval(t, `
source r(a:int, b:string).
view v(a:int).
+r(X,Y) :- v(X), not r(X,'unknown'), Y = 'unknown'.
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), value.NewRelation(2))
	db.Set(datalog.Pred("v"), ints(7))
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	want := value.Tuple{value.Int(7), value.Str("unknown")}
	if got := db.Rel(datalog.Ins("r")); got.Len() != 1 || !got.Contains(want) {
		t.Errorf("Δ+r = %v, want {(7,'unknown')}", got)
	}
}

func TestAnonymousInNegatedAtom(t *testing.T) {
	// retired(E) :- residents(E,B,G), not ced(E,_): NOT EXISTS semantics.
	e := mustEval(t, `
source residents(e:string, b:string).
source ced(e:string, d:string).
view unused(e:string).
retired(E) :- residents(E,B), not ced(E,_).
`)
	db := NewDatabase()
	res := value.NewRelation(2)
	res.Add(value.Tuple{value.Str("ann"), value.Str("1960")})
	res.Add(value.Tuple{value.Str("bob"), value.Str("1970")})
	db.Set(datalog.Pred("residents"), res)
	ced := value.NewRelation(2)
	ced.Add(value.Tuple{value.Str("bob"), value.Str("sales")})
	db.Set(datalog.Pred("ced"), ced)
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	got := db.Rel(datalog.Pred("retired"))
	if got.Len() != 1 || !got.Contains(value.Tuple{value.Str("ann")}) {
		t.Errorf("retired = %v, want {ann}", got)
	}
}

func TestAnonymousInPositiveAtom(t *testing.T) {
	e := mustEval(t, `
source r(a:int, b:int).
view v(a:int).
proj(X) :- r(X,_).
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), pairs([2]int64{1, 10}, [2]int64{1, 20}, [2]int64{2, 30}))
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	if got := db.Rel(datalog.Pred("proj")); !got.Equal(ints(1, 2)) {
		t.Errorf("proj = %v, want {1,2}", got)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	e := mustEval(t, `
source r(a:int, b:int).
view v(a:int).
diag(X) :- r(X,X).
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), pairs([2]int64{1, 1}, [2]int64{1, 2}, [2]int64{3, 3}))
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	if got := db.Rel(datalog.Pred("diag")); !got.Equal(ints(1, 3)) {
		t.Errorf("diag = %v, want {1,3}", got)
	}
}

func TestJoinUsesIndex(t *testing.T) {
	e := mustEval(t, `
source s1(a:int, b:int).
source s2(b:int, c:int).
view v(a:int).
j(X,Y,Z) :- s1(X,Y), s2(Y,Z).
`)
	db := NewDatabase()
	db.Set(datalog.Pred("s1"), pairs([2]int64{1, 10}, [2]int64{2, 20}))
	db.Set(datalog.Pred("s2"), pairs([2]int64{10, 100}, [2]int64{10, 101}, [2]int64{30, 300}))
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	got := db.Rel(datalog.Pred("j"))
	if got.Len() != 2 ||
		!got.Contains(value.Tuple{value.Int(1), value.Int(10), value.Int(100)}) ||
		!got.Contains(value.Tuple{value.Int(1), value.Int(10), value.Int(101)}) {
		t.Errorf("join = %v", got)
	}
}

func TestComparisonsAndNegatedBuiltins(t *testing.T) {
	e := mustEval(t, `
source r(a:int).
view v(a:int).
mid(X) :- r(X), not X < 2, not X > 4.
ne(X)  :- r(X), X <> 3.
le(X)  :- r(X), X <= 2.
ge(X)  :- r(X), X >= 4.
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), ints(1, 2, 3, 4, 5))
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	if got := db.Rel(datalog.Pred("mid")); !got.Equal(ints(2, 3, 4)) {
		t.Errorf("mid = %v", got)
	}
	if got := db.Rel(datalog.Pred("ne")); !got.Equal(ints(1, 2, 4, 5)) {
		t.Errorf("ne = %v", got)
	}
	if got := db.Rel(datalog.Pred("le")); !got.Equal(ints(1, 2)) {
		t.Errorf("le = %v", got)
	}
	if got := db.Rel(datalog.Pred("ge")); !got.Equal(ints(4, 5)) {
		t.Errorf("ge = %v", got)
	}
}

func TestStringComparisonDates(t *testing.T) {
	e := mustEval(t, `
source residents(e:string, b:date).
view v(e:string).
in1962(E) :- residents(E,B), not B < '1962-01-01', not B > '1962-12-31'.
`)
	db := NewDatabase()
	r := value.NewRelation(2)
	r.Add(value.Tuple{value.Str("ann"), value.Str("1962-05-17")})
	r.Add(value.Tuple{value.Str("bob"), value.Str("1961-12-31")})
	r.Add(value.Tuple{value.Str("cat"), value.Str("1963-01-01")})
	db.Set(datalog.Pred("residents"), r)
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	got := db.Rel(datalog.Pred("in1962"))
	if got.Len() != 1 || !got.Contains(value.Tuple{value.Str("ann")}) {
		t.Errorf("in1962 = %v, want {ann}", got)
	}
}

func TestViolations(t *testing.T) {
	e := mustEval(t, `
source r(a:int).
view v(a:int).
_|_ :- v(X), X > 2.
_|_ :- v(X), r(X), X < 0.
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), ints())
	db.Set(datalog.Pred("v"), ints(1, 2))
	vs, err := e.Violations(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("no violation expected, got %v", vs)
	}
	db.Set(datalog.Pred("v"), ints(1, 5))
	vs, err = e.Violations(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Errorf("one violation expected, got %v", vs)
	}
}

func TestContradictionDetected(t *testing.T) {
	e := mustEval(t, `
source r(a:int).
view v(a:int).
+r(X) :- v(X).
-r(X) :- v(X), r(X).
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), ints(1))
	db.Set(datalog.Pred("v"), ints(1))
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyDeltas(db, e.Program().Sources); err == nil {
		t.Fatal("expected contradiction error")
	} else if _, ok := err.(*ContradictionError); !ok {
		t.Fatalf("want ContradictionError, got %T: %v", err, err)
	}
}

func TestNewRejectsBadPrograms(t *testing.T) {
	bad := []string{
		// recursive
		"source r(a:int).\nview v(a:int).\na(X) :- b(X).\nb(X) :- a(X).",
		// unsafe
		"source r(a:int).\nview v(a:int).\n+r(X) :- v(Y).",
		// arity conflict
		"source r(a:int,b:int).\nview v(a:int).\na(X) :- v(X).\na(X,Y) :- r(X,Y).",
		// anonymous head variable
		"source r(a:int,b:int).\nview v(a:int).\n+r(X,_) :- v(X).",
	}
	for _, src := range bad {
		if _, err := New(mustProg(t, src)); err == nil {
			t.Errorf("New should reject:\n%s", src)
		}
	}
}

func TestEvalQueryAndEmptyGoal(t *testing.T) {
	e := mustEval(t, `
source r(a:int).
view v(a:int).
big(X) :- r(X), X > 100.
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), ints(1, 2))
	got, err := e.EvalQuery(db, datalog.Pred("big"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Errorf("big = %v, want empty", got)
	}
}

func TestDatabaseIndexMaintenance(t *testing.T) {
	db := NewDatabase()
	p := datalog.Pred("r")
	db.Set(p, pairs([2]int64{1, 10}, [2]int64{2, 20}))
	// Build an index, then mutate through the database.
	if got := db.Lookup(p, []int{0}, value.Tuple{value.Int(1)}); len(got) != 1 {
		t.Fatalf("lookup before mutation = %v", got)
	}
	db.Insert(p, value.Tuple{value.Int(1), value.Int(11)})
	if got := db.Lookup(p, []int{0}, value.Tuple{value.Int(1)}); len(got) != 2 {
		t.Errorf("lookup after insert = %v", got)
	}
	db.Delete(p, value.Tuple{value.Int(1), value.Int(10)})
	if got := db.Lookup(p, []int{0}, value.Tuple{value.Int(1)}); len(got) != 1 {
		t.Errorf("lookup after delete = %v", got)
	}
	// Set drops the index; a later lookup rebuilds it.
	db.Set(p, pairs([2]int64{5, 50}))
	if got := db.Lookup(p, []int{0}, value.Tuple{value.Int(5)}); len(got) != 1 {
		t.Errorf("lookup after Set = %v", got)
	}
	if got := db.Lookup(p, []int{0}, value.Tuple{value.Int(1)}); len(got) != 0 {
		t.Errorf("stale index entries after Set: %v", got)
	}
}

func TestDatabaseCloneAndEqual(t *testing.T) {
	db := NewDatabase()
	db.Set(datalog.Pred("r"), ints(1))
	c := db.Clone()
	c.Insert(datalog.Pred("r"), value.Tuple{value.Int(2)})
	if db.Rel(datalog.Pred("r")).Len() != 1 {
		t.Error("Clone shares relations")
	}
	preds := []datalog.PredSym{datalog.Pred("r")}
	if db.Equal(c, preds) {
		t.Error("Equal should detect difference")
	}
	c.Delete(datalog.Pred("r"), value.Tuple{value.Int(2)})
	if !db.Equal(c, preds) {
		t.Error("Equal should match again")
	}
	// nil relation treated as empty.
	other := NewDatabase()
	empty := NewDatabase()
	empty.Set(datalog.Pred("x"), ints())
	if !other.Equal(empty, []datalog.PredSym{datalog.Pred("x")}) {
		t.Error("nil vs empty relation should be equal")
	}
}

func TestSnapshotHelpers(t *testing.T) {
	prog := mustProg(t, `
source r(a:int).
view v(a:int).
+r(X) :- v(X), not r(X).
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), ints(1))
	snap := SnapshotSources(db, prog.Sources)
	if !SourcesEqual(db, prog.Sources, snap) {
		t.Error("snapshot should match immediately")
	}
	db.Insert(datalog.Pred("r"), value.Tuple{value.Int(2)})
	if SourcesEqual(db, prog.Sources, snap) {
		t.Error("snapshot should detect change")
	}
}

func TestPutHelper(t *testing.T) {
	prog := mustProg(t, `
source r(a:int).
view v(a:int).
+r(X) :- v(X), not r(X).
-r(X) :- r(X), not v(X).
`)
	e, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Set(datalog.Pred("r"), ints(1, 2))
	db.Set(datalog.Pred("v"), ints(2, 3))
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyDeltas(db, prog.Sources); err != nil {
		t.Fatal(err)
	}
	if got := db.Rel(datalog.Pred("r")); !got.Equal(ints(2, 3)) {
		t.Errorf("r after put = %v, want {2,3}", got)
	}
}

// Property: identity strategy round-trips random databases — after put with
// V = R the source is unchanged (GetPut instance), and after put with a
// random V the source equals V (PutGet instance for the identity view).
func TestIdentityStrategyProperty(t *testing.T) {
	prog := mustProg(t, `
source r(a:int).
view v(a:int).
+r(X) :- v(X), not r(X).
-r(X) :- r(X), not v(X).
`)
	e, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	randomRel := func() *value.Relation {
		r := value.NewRelation(1)
		for i := 0; i < rng.Intn(8); i++ {
			r.Add(value.Tuple{value.Int(int64(rng.Intn(10)))})
		}
		return r
	}
	for trial := 0; trial < 100; trial++ {
		src := randomRel()
		db := NewDatabase()
		db.Set(datalog.Pred("r"), src.Clone())
		db.Set(datalog.Pred("v"), src.Clone())
		if err := e.Eval(db); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ApplyDeltas(db, prog.Sources); err != nil {
			t.Fatal(err)
		}
		if !db.Rel(datalog.Pred("r")).Equal(src) {
			t.Fatalf("GetPut violated: %v -> %v", src, db.Rel(datalog.Pred("r")))
		}
		v := randomRel()
		db.Set(datalog.Pred("v"), v.Clone())
		if err := e.Eval(db); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ApplyDeltas(db, prog.Sources); err != nil {
			t.Fatal(err)
		}
		if !db.Rel(datalog.Pred("r")).Equal(v) {
			t.Fatalf("PutGet violated: view %v -> source %v", v, db.Rel(datalog.Pred("r")))
		}
	}
}

// Regression: a probe key consisting only of constants must not create a
// maintained index — such indexes key on low-selectivity columns (e.g. the
// done flag of tasks(T,N,U,0)) and make every later Insert/Delete scan a
// huge bucket. Figure 6c's outstanding_task view probes tasks this way.
func TestNoConstantOnlyIndexes(t *testing.T) {
	e := mustEval(t, `
source tasks(tid:int, tname:string, uid:int, done:int).
source users(uid:int, uname:string).
view ot(tid:int, tname:string, uid:int).
ot2(T,N,U) :- tasks(T,N,U,0), users(U,_).
`)
	db := NewDatabase()
	tasks := value.NewRelation(4)
	for i := 0; i < 100; i++ {
		tasks.Add(value.Tuple{value.Int(int64(i)), value.Str("t"), value.Int(int64(i % 10)), value.Int(int64(i % 2))})
	}
	users := value.NewRelation(2)
	for i := 0; i < 10; i++ {
		users.Add(value.Tuple{value.Int(int64(i)), value.Str("u")})
	}
	db.Set(datalog.Pred("tasks"), tasks)
	db.Set(datalog.Pred("users"), users)
	if err := e.Eval(db); err != nil {
		t.Fatal(err)
	}
	for _, st := range db.Indexes() {
		if st.Pred == datalog.Pred("tasks") && st.Positions == "3" {
			t.Fatalf("constant-only index on tasks(done) must not exist: %+v", db.Indexes())
		}
	}
	// The plan confirms: tasks is scanned, users is probed by the bound U.
	plan := e.Explain(db)
	if !strings.Contains(plan, "scan tasks (full)") {
		t.Errorf("tasks should be a full scan:\n%s", plan)
	}
	if !strings.Contains(plan, "probe users via ephemeral table on positions [0]") {
		t.Errorf("users should be probed:\n%s", plan)
	}
}

// TestEvalQueryCone verifies that EvalQuery evaluates only the goal's
// dependency cone and leaves unrelated IDB predicates untouched.
func TestEvalQueryCone(t *testing.T) {
	prog := mustProg(t, `
source r(a:int).
source s(a:int).
view v(a:int).
a(X) :- r(X).
b(X) :- a(X), s(X).
unrelated(X) :- s(X), not r(X).
`)
	ev, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Set(datalog.Pred("r"), value.RelationOf(1, value.Tuple{value.Int(1)}, value.Tuple{value.Int(2)}))
	db.Set(datalog.Pred("s"), value.RelationOf(1, value.Tuple{value.Int(2)}, value.Tuple{value.Int(3)}))

	// Plant a stale relation for the unrelated predicate: a full Eval would
	// replace it; a cone-restricted EvalQuery must not.
	stale := value.RelationOf(1, value.Tuple{value.Int(99)})
	db.Set(datalog.Pred("unrelated"), stale)

	got, err := ev.EvalQuery(db, datalog.Pred("b"))
	if err != nil {
		t.Fatal(err)
	}
	want := value.RelationOf(1, value.Tuple{value.Int(2)})
	if !got.Equal(want) {
		t.Fatalf("b = %v, want %v", got, want)
	}
	if a := db.Rel(datalog.Pred("a")); a == nil || a.Len() != 2 {
		t.Fatalf("cone predicate a should be evaluated, got %v", a)
	}
	if u := db.Rel(datalog.Pred("unrelated")); u != stale {
		t.Fatalf("unrelated predicate was touched: %v", u)
	}
	if !db.Rel(datalog.Pred("unrelated")).Contains(value.Tuple{value.Int(99)}) {
		t.Fatal("stale contents of unrelated predicate were replaced")
	}

	// A full Eval still recomputes everything.
	if err := ev.Eval(db); err != nil {
		t.Fatal(err)
	}
	wantU := value.RelationOf(1, value.Tuple{value.Int(3)})
	if u := db.Rel(datalog.Pred("unrelated")); !u.Equal(wantU) {
		t.Fatalf("after full Eval, unrelated = %v, want %v", u, wantU)
	}
}

// TestEvalQueryUnknownGoal keeps the pre-cone behavior for a goal with no
// rules: an empty relation, no error.
func TestEvalQueryUnknownGoal(t *testing.T) {
	prog := mustProg(t, `
source r(a:int).
view v(a:int).
a(X) :- r(X).
`)
	ev, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Set(datalog.Pred("r"), value.RelationOf(1, value.Tuple{value.Int(1)}))
	got, err := ev.EvalQuery(db, datalog.Pred("nosuch"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Fatalf("unknown goal should yield an empty relation, got %v", got)
	}
}
