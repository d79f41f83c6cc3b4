package eval

import (
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

// Allocation-regression guards for the evaluator's warm hot paths: none of
// them may allocate per tuple. testing.AllocsPerRun bounds are exact where the path is
// allocation-free and small fixed budgets where Go's map/closure machinery
// makes zero unattainable — either way, a per-tuple regression (allocations
// scaling with relation or delta size) trips them loudly.

func allocGuardDB(n int) *Database {
	db := NewDatabase()
	rel := value.NewRelation(2)
	for i := 0; i < n; i++ {
		rel.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % 100))})
	}
	db.Set(datalog.Pred("r"), rel)
	return db
}

// A warm index probe hashes the key projection in place: zero allocations.
func TestAllocsIndexProbe(t *testing.T) {
	db := allocGuardDB(50000)
	p := datalog.Pred("r")
	positions := []int{0}
	key := value.Tuple{value.Int(31234)}
	db.Index(p, positions) // warm
	if allocs := testing.AllocsPerRun(200, func() {
		if len(db.Lookup(p, positions, key)) != 1 {
			t.Fatal("probe must hit exactly one tuple")
		}
	}); allocs != 0 {
		t.Errorf("warm index probe allocates %v objects per run, want 0", allocs)
	}
}

// The resolved-index probe a prepared streaming run makes is the same pure
// lookup: zero allocations.
func TestAllocsPreparedProbe(t *testing.T) {
	db := allocGuardDB(50000)
	ix := db.Index(datalog.Pred("r"), []int{0})
	key := value.Tuple{value.Int(1234)}
	if allocs := testing.AllocsPerRun(200, func() {
		if len(ix.lookup(key)) != 1 {
			t.Fatal("probe must hit exactly one tuple")
		}
	}); allocs != 0 {
		t.Errorf("prepared probe allocates %v objects per run, want 0", allocs)
	}
}

// Relation membership hashes the tuple in place: zero allocations.
func TestAllocsContains(t *testing.T) {
	db := allocGuardDB(50000)
	rel := db.Rel(datalog.Pred("r"))
	hit := value.Tuple{value.Int(777), value.Int(77)}
	miss := value.Tuple{value.Int(-5), value.Int(0)}
	if allocs := testing.AllocsPerRun(200, func() {
		if !rel.Contains(hit) || rel.Contains(miss) {
			t.Fatal("membership answers changed")
		}
	}); allocs != 0 {
		t.Errorf("Contains allocates %v objects per run, want 0", allocs)
	}
}

// Applying a delta maintains the relation and its live indexes in place.
// The budget is a small constant (hash-bucket map bookkeeping when a bucket
// empties and is re-created); what the guard forbids is scaling with the
// base relation or with index count.
func TestAllocsInsertDeleteWithIndexes(t *testing.T) {
	db := allocGuardDB(50000)
	p := datalog.Pred("r")
	db.Index(p, []int{0})
	db.Index(p, []int{1})
	tu := value.Tuple{value.Int(900001), value.Int(3)}
	// Warm one cycle so steady-state bucket slices exist.
	db.Insert(p, tu)
	db.Delete(p, tu)
	const budget = 8
	if allocs := testing.AllocsPerRun(200, func() {
		db.Insert(p, tu)
		db.Delete(p, tu)
	}); allocs > budget {
		t.Errorf("insert+delete with 2 live indexes allocates %v objects per run, budget %d", allocs, budget)
	}
}

// A full ApplyDeltas round (non-contradiction check + index-maintaining
// insert/delete) against a large base relation stays within a fixed budget
// independent of the base size.
func TestAllocsApplyDeltas(t *testing.T) {
	prog := mustProg(t, `
source r(a:int, b:int).
view v(a:int, b:int).
+r(X,Y) :- +v(X,Y), not r(X,Y).
`)
	db := allocGuardDB(50000)
	db.Index(datalog.Pred("r"), []int{0})
	ins := value.RelationOf(2, value.Tuple{value.Int(700001), value.Int(1)})
	db.Set(datalog.Ins("r"), ins)
	db.Set(datalog.Del("r"), value.NewRelation(2))
	// First application inserts the tuple; subsequent rounds are no-ops
	// (set semantics) and must not allocate per delta tuple.
	if _, _, err := ApplyDeltas(db, prog.Sources); err != nil {
		t.Fatal(err)
	}
	const budget = 8
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ApplyDeltas(db, prog.Sources); err != nil {
			t.Fatal(err)
		}
	}); allocs > budget {
		t.Errorf("steady-state ApplyDeltas allocates %v objects per run, budget %d", allocs, budget)
	}
}

// The counted-probe hot path of the IVM state: adjusting the support of a
// warm tuple (bucket probe + in-place count update) allocates nothing, in
// both directions.
func TestAllocsCountedAdjust(t *testing.T) {
	c := value.NewCounted(2)
	tu := value.Tuple{value.Int(7), value.Int(7)}
	c.Adjust(tu, 2) // warm: entry exists from here on
	if allocs := testing.AllocsPerRun(200, func() {
		c.Adjust(tu, 1)
		c.Adjust(tu, -1)
	}); allocs != 0 {
		t.Errorf("warm counted adjust allocates %v objects per run, want 0", allocs)
	}
}

// A steady-state EvalDelta round — one-tuple delta against a large base —
// stays within a fixed budget independent of the base size: the counted
// probes, old-version reads and index maintenance are all O(|Δ|).
func TestAllocsEvalDeltaSteadyState(t *testing.T) {
	prog := mustProg(t, `
source r(a:int, b:int).
source s(b:int).
view v(a:int).
big(X,Y) :- r(X,Y), s(Y).
neg(X) :- r(X,_), not s(X).
`)
	ev, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := allocGuardDB(50000)
	srel := value.NewRelation(1)
	for i := 0; i < 100; i++ {
		srel.Add(value.Tuple{value.Int(int64(i))})
	}
	db.Set(datalog.Pred("s"), srel)
	db.Set(datalog.Pred("v"), value.NewRelation(1))
	if _, err := ev.EvalDelta(db, nil); err != nil { // init counts
		t.Fatal(err)
	}
	p := datalog.Pred("r")
	tu := value.Tuple{value.Int(900001), value.Int(5)}
	d := NewDelta(2)
	// A fixed budget: maps, per-predicate delta relations and the emitted
	// head tuples — none of it scales with the 50k-tuple base.
	const budget = 120
	if allocs := testing.AllocsPerRun(100, func() {
		d.Ins, d.Del = value.NewRelation(2), value.NewRelation(2)
		db.Insert(p, tu)
		d.Ins.Add(tu)
		if _, err := ev.EvalDelta(db, map[datalog.PredSym]Delta{p: d}); err != nil {
			t.Fatal(err)
		}
		db.Delete(p, tu)
		d.Ins, d.Del = value.NewRelation(2), value.NewRelation(2)
		d.Del.Add(tu)
		if _, err := ev.EvalDelta(db, map[datalog.PredSym]Delta{p: d}); err != nil {
			t.Fatal(err)
		}
	}); allocs > budget {
		t.Errorf("steady-state EvalDelta allocates %v objects per run, budget %d", allocs, budget)
	}
}

// A warm streaming Eval over a tiny database — the satisfiability oracle's
// per-instance call — allocates only what it derives: one head tuple per
// emitted tuple, the output relations holding them, and the probe tables
// the run builds. The plans' run contexts and the probe-table cache are
// owned by the evaluator, so no allocation is paid per rule or per
// evaluation, and a predicate that derives nothing keeps its installed
// empty relation instead of allocating a new one.
func TestAllocsStreamingEvalWarm(t *testing.T) {
	ev := mustEval(t, `
source r(a:int, b:int).
source s(b:int).
view v(a:int).
j(X,Y) :- r(X,Y), s(Y).
n(X) :- r(X,_), not s(X).
e(X) :- r(X,Y), s(Y), X = 99.
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), pairs([2]int64{1, 2}, [2]int64{2, 3}))
	db.Set(datalog.Pred("s"), ints(2))
	if err := ev.Eval(db); err != nil { // warm plans, envs and caches
		t.Fatal(err)
	}
	if got := db.Rel(datalog.Pred("j")); !got.Equal(pairs([2]int64{1, 2})) {
		t.Fatalf("j = %v, want {(1,2)}", got)
	}
	if got := db.Rel(datalog.Pred("n")); !got.Equal(ints(1)) {
		t.Fatalf("n = %v, want {(1)}", got)
	}
	if got := db.Rel(datalog.Pred("e")); got == nil || !got.Empty() {
		t.Fatalf("e = %v, want an installed empty relation", got)
	}
	// Derived: j(1,2) and n(1), one head tuple each. Output storage: per
	// non-empty output, the relation plus its tuple and hash slices. Probe
	// tables: none — j's and e's probes of s bind its only position, so
	// they test membership in s itself. The budget has no slack: on a warm
	// database every relation resolves through the evaluator's cached
	// database slots, with no map write, so one allocation per rule or per
	// evaluation exceeds it.
	const derived, outputs, tables = 2, 2 * 3, 0
	const budget = derived + outputs + tables
	if allocs := testing.AllocsPerRun(200, func() {
		if err := ev.Eval(db); err != nil {
			t.Fatal(err)
		}
	}); allocs > budget {
		t.Errorf("warm streaming Eval allocates %v objects per run, budget %d", allocs, budget)
	}
}
