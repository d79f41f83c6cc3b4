package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

// Differential harness for the full-evaluation executor (stream.go),
// beside reference_test.go's comparisons with the naive reference
// evaluator: the counted-IVM initialization must produce the support counts
// that the independent delta plans (EvalDelta) build up from an empty EDB;
// and the per-output-tuple allocation budget is pinned so lazy pipelines
// never regress into per-probe allocations.

// assertSameCounts fails unless the two evaluators hold bit-identical
// support counts: the same tuples with the same counts for every IDB
// predicate.
func assertSameCounts(t *testing.T, prog *datalog.Program, a, b *Evaluator, label string) {
	t.Helper()
	if a.ivm == nil || b.ivm == nil {
		t.Fatalf("%s: missing IVM state (a=%v b=%v)", label, a.ivm != nil, b.ivm != nil)
	}
	for sym := range prog.IDBPreds() {
		ca, cb := a.ivm.counts[sym], b.ivm.counts[sym]
		if (ca == nil) != (cb == nil) {
			t.Fatalf("%s: counts for %s present=%v vs %v", label, sym, ca != nil, cb != nil)
		}
		if ca == nil {
			continue
		}
		ca.Each(func(tu value.Tuple, n int) {
			if got := cb.Count(tu); got != n {
				t.Errorf("%s: support of %s%v = %d vs %d", label, sym, tu, n, got)
			}
		})
		cb.Each(func(tu value.Tuple, n int) {
			if got := ca.Count(tu); got != n {
				t.Errorf("%s: support of %s%v = %d vs %d", label, sym, tu, got, n)
			}
		})
	}
}

// TestStreamingCountedInitCountsIdentical pins the counted-IVM
// initialization against the delta plans, an independent code path: one
// evaluator initializes over the whole EDB; another initializes over the
// same predicates left empty, then receives every EDB tuple as one
// EvalDelta insertion. Both must hold the same IDB relations and
// bit-identical support counts, and the initialization must report each
// non-empty IDB relation as its insertion delta (the database held no IDB
// relation before).
func TestStreamingCountedInitCountsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99177))
	corpus := append([]string{}, referenceCorpus...)
	for i := 0; i < 8; i++ {
		corpus = append(corpus, genProgram(rng))
	}
	for pi, src := range corpus {
		prog := mustProg(t, src)
		for trial := 0; trial < 3; trial++ {
			db := genEDB(rng)
			// Corpus programs may use sources outside genEDB's trio.
			for _, s := range prog.Sources {
				if db.Rel(datalog.Pred(s.Name)) == nil {
					rel := value.NewRelation(s.Arity())
					for i := 0; i < rng.Intn(6); i++ {
						tu := make(value.Tuple, s.Arity())
						for j := range tu {
							tu[j] = value.Int(int64(rng.Intn(4)))
						}
						rel.Add(tu)
					}
					db.Set(datalog.Pred(s.Name), rel)
				}
			}
			if db.Rel(datalog.Pred(prog.View.Name)) == nil {
				db.Set(datalog.Pred(prog.View.Name), value.NewRelation(prog.View.Arity()))
			}
			label := fmt.Sprintf("program %d trial %d", pi, trial)
			evInit, err := New(prog)
			if err != nil {
				t.Fatal(err)
			}
			evDelta, err := New(prog)
			if err != nil {
				t.Fatal(err)
			}

			dbInit := db.Clone()
			outInit, err := evInit.EvalDelta(dbInit, nil)
			if err != nil {
				t.Fatalf("%s: init: %v\n%s", label, err, src)
			}

			dbDelta := NewDatabase()
			for _, sym := range db.Preds() {
				dbDelta.Set(sym, value.NewRelation(db.Rel(sym).Arity()))
			}
			if _, err := evDelta.EvalDelta(dbDelta, nil); err != nil {
				t.Fatalf("%s: init over the empty EDB: %v\n%s", label, err, src)
			}
			edb := make(map[datalog.PredSym]Delta)
			for _, sym := range db.Preds() {
				rel := db.Rel(sym)
				rel.Each(func(tu value.Tuple) { dbDelta.Insert(sym, tu) })
				edb[sym] = Delta{Ins: rel.Clone(), Del: value.NewRelation(rel.Arity())}
			}
			if _, err := evDelta.EvalDelta(dbDelta, edb); err != nil {
				t.Fatalf("%s: EvalDelta: %v\n%s", label, err, src)
			}
			if !evDelta.IVMReady(dbDelta) {
				t.Fatalf("%s: EvalDelta re-initialized instead of propagating", label)
			}

			assertSameIDB(t, prog, dbInit, dbDelta, label)
			assertSameCounts(t, prog, evInit, evDelta, label)
			for sym := range prog.IDBPreds() {
				want := dbDelta.RelOrEmpty(sym, evInit.arities[sym])
				d, ok := outInit[sym]
				if ok != !want.Empty() {
					t.Fatalf("%s: init delta for %s present=%v, relation %v", label, sym, ok, want)
				}
				if ok && (!d.Ins.Equal(want) || !d.Del.Empty()) {
					t.Fatalf("%s: init delta for %s = +%v -%v, want +%v", label, sym, d.Ins, d.Del, want)
				}
			}
		}
	}
}

// TestStreamingPerTupleAllocBudget pins the streaming path's allocation
// profile on a join-heavy evaluation: the per-output-tuple cost is the head
// tuple plus set-insertion bookkeeping — a small constant. A regression
// that allocates per probe (a closure or key copy in the inner join loop)
// multiplies the ratio and trips the guard.
func TestStreamingPerTupleAllocBudget(t *testing.T) {
	prog := mustProg(t, `
source fact(a:int, b:int).
source dim(b:int, c:int).
view v(a:int).
out(X,Z) :- dim(Y,Z), fact(X,Y).
`)
	ev, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	const nFact, nDim = 20000, 200
	fact := value.NewRelation(2)
	for i := 0; i < nFact; i++ {
		fact.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % nDim))})
	}
	dim := value.NewRelation(2)
	for k := 0; k < nDim; k++ {
		dim.Add(value.Tuple{value.Int(int64(k)), value.Int(int64(k * 7))})
	}
	db.Set(datalog.Pred("fact"), fact)
	db.Set(datalog.Pred("dim"), dim)

	if err := ev.Eval(db); err != nil { // warm plans and envs
		t.Fatal(err)
	}
	out := db.Rel(datalog.Pred("out"))
	if out == nil || out.Len() != nFact {
		t.Fatalf("join produced %v tuples, want %d", out, nFact)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := ev.Eval(db); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: head tuple + relation insertion, plus the evaluation's fixed
	// overhead (ephemeral dim table, output relation growth) amortized over
	// 20k outputs. Comfortably above the measured steady state, far below
	// the 1-per-probe regression this guards against.
	const budget = 8.0
	if perTuple := allocs / nFact; perTuple > budget {
		t.Errorf("streaming Eval allocates %.2f objects per output tuple (%.0f total), budget %.1f",
			perTuple, allocs, budget)
	}
}

// TestStreamingKeylessNegationBuildsNoIndex: a negation over anonymous
// arguments only (not s(_,_)) probes an ephemeral exist table like every
// other streaming step, never a maintained index built on demand: a
// one-shot full evaluation leaves the Database's index registry untouched.
func TestStreamingKeylessNegationBuildsNoIndex(t *testing.T) {
	ev := mustEval(t, `
source r(a:int, b:int).
source s(a:int, b:int).
view v(a:int).
h(X) :- r(X,_), not s(_,_).
`)
	db := NewDatabase()
	r := value.NewRelation(2)
	r.Add(value.Tuple{value.Int(1), value.Int(2)})
	db.Set(datalog.Pred("r"), r)
	db.Set(datalog.Pred("s"), value.NewRelation(2))
	if err := ev.Eval(db); err != nil {
		t.Fatal(err)
	}
	if got := db.RelOrEmpty(datalog.Pred("h"), 1); !got.Equal(ints(1)) {
		t.Fatalf("h = %v, want {(1)}", got)
	}
	if _, ok := db.LookupExisting(datalog.Pred("s"), nil, value.Tuple{}); ok {
		t.Fatal("streaming evaluation built a maintained index for a keyless negation")
	}
}

// TestStreamingReuseMatchesReference follows the satisfiability oracle's
// access pattern: one Database mutated by single-tuple Insert/Delete
// between evaluations, and two evaluators alternating on it, the second
// reading the first's outputs (as Validate's PutGet check runs the putback
// evaluator and then the get evaluator on each instance). The sizes of r
// and s cross during the run, so pickVariant switches the driver of j's
// join; maintained indexes appear on a base and a derived relation part
// way, so prepared runs mix index reuse, ephemeral tables and slots
// re-resolved after an install. Every Eval must equal the reference, and
// must leave the evaluator holding no table, relation or database.
func TestStreamingReuseMatchesReference(t *testing.T) {
	putProg := mustProg(t, `
source r(a:int, b:int).
source s(b:int, c:int).
source t(a:int).
view v(a:int).
j(X,Z) :- r(X,Y), s(Y,Z).
n(X) :- r(X,_), not t(X).
k(X) :- j(X,_), not s(X,_).
p(X) :- t(X), j(X,_).
e(X) :- t(X), X = 99.
`)
	getProg := mustProg(t, `
source j(a:int, c:int).
source n(a:int).
source s(b:int, c:int).
view w(a:int).
m(X) :- n(X), j(X,Z), s(Z,_).
q(X) :- n(X), not j(X,_).
`)
	putEv, err := New(putProg)
	if err != nil {
		t.Fatal(err)
	}
	getEv, err := New(getProg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(77))
	db := NewDatabase()
	arity := map[string]int{"r": 2, "s": 2, "t": 1}
	insert := func(name string) {
		tu := make(value.Tuple, arity[name])
		for i := range tu {
			tu[i] = value.Int(int64(rng.Intn(4)))
		}
		db.Insert(datalog.Pred(name), tu)
	}
	remove := func(name string) {
		if rel := db.Rel(datalog.Pred(name)); rel != nil && !rel.Empty() {
			ts := rel.Sorted()
			db.Delete(datalog.Pred(name), ts[rng.Intn(len(ts))])
		}
	}
	insert("r")
	for i := 0; i < 12; i++ {
		insert("s")
	}
	insert("t")

	jRule := putEv.rules[datalog.Pred("j")][0]
	drivers := make(map[*compiledRule]bool)
	const steps = 120
	for step := 0; step < steps; step++ {
		grow, shrink := "r", "s"
		if step >= steps/2 {
			grow, shrink = "s", "r"
		}
		switch x := rng.Intn(10); {
		case x < 4:
			insert(grow)
		case x < 8:
			remove(shrink)
		case x < 9:
			insert("t")
		default:
			remove("t")
		}
		if step%25 == 10 {
			db.Index(datalog.Pred("s"), []int{0})
			db.Index(datalog.Pred("j"), []int{0})
		}

		putEv.ec.bind(db)
		drivers[jRule.pickVariant(&putEv.ec)] = true
		putEv.ec.reset()

		label := fmt.Sprintf("step %d", step)
		for _, c := range []struct {
			ev   *Evaluator
			prog *datalog.Program
		}{{putEv, putProg}, {getEv, getProg}} {
			want := refEval(t, c.prog, db)
			if err := c.ev.Eval(db); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameIDB(t, c.prog, db, want, label)
			assertReleased(t, c.ev, label)
		}
	}
	if len(drivers) < 2 {
		t.Fatalf("j's join ran with %d driver variant(s); the schedule must make r and s cross", len(drivers))
	}
}

// assertReleased fails unless ev holds nothing from its last evaluation:
// an empty probe-table cache, no resolved relation slot, and no plan's run
// context holding a database, relation or table.
func assertReleased(t *testing.T, ev *Evaluator, label string) {
	t.Helper()
	if len(ev.ec.tables) != 0 || len(ev.ec.exists) != 0 {
		t.Fatalf("%s: evalCtx keeps %d join and %d exist tables after Eval", label, len(ev.ec.tables), len(ev.ec.exists))
	}
	for k := range ev.ec.syms {
		if ev.ec.rels[k] != nil || ev.ec.ixs[k] != nil {
			t.Fatalf("%s: evalCtx slot %s still resolved after Eval", label, ev.ec.syms[k])
		}
	}
	check := func(cr *compiledRule) {
		if cr.rc.db != nil || cr.rc.prepared {
			t.Fatalf("%s: run context of %q still prepared after Eval", label, cr.rule)
		}
		for i, r := range cr.rc.res {
			if r != (stepRes{}) {
				t.Fatalf("%s: run context of %q step %d still holds %+v", label, cr.rule, i, r)
			}
		}
	}
	for _, p := range ev.plan {
		for _, rp := range p.rules {
			for _, v := range rp.variants {
				check(v)
			}
		}
	}
	for _, cr := range ev.constraints {
		check(cr)
	}
}

// luxuryDB builds the Figure 6 luxuryitems shape at base size n: items with
// prices 1..2000 and a one-tuple view deletion -luxuryitems naming the
// item with id 10 (price 1990).
func luxuryDB(n int) *Database {
	db := NewDatabase()
	items := value.NewRelation(3)
	for i := 0; i < n; i++ {
		items.Add(value.Tuple{value.Int(int64(i)), value.Str(fmt.Sprintf("item%d", i)), value.Int(int64(2000 - i%2000))})
	}
	db.Set(datalog.Pred("items"), items)
	del := value.NewRelation(3)
	del.Add(value.Tuple{value.Int(10), value.Str("item10"), value.Int(1990)})
	db.Set(datalog.Del("luxuryitems"), del)
	return db
}

// TestStreamingFullKeyProbeBuildsNoTable pins the ∂put shape of Figure 6's
// luxuryitems: driven by a one-tuple view delta, the rule binds every
// position of items, so it tests membership in items itself. The chosen
// variant scans the delta and its run builds no probe table, so a warm
// Eval allocates the same at 1k and at 16k base tuples.
func TestStreamingFullKeyProbeBuildsNoTable(t *testing.T) {
	const src = `
source items(iid:int, iname:string, price:int).
view luxuryitems(iid:int, iname:string, price:int).
-items(I,N,P) :- items(I,N,P), P > 1000, -luxuryitems(I,N,P).
`
	want := value.RelationOf(3, value.Tuple{value.Int(10), value.Str("item10"), value.Int(1990)})
	allocs := map[int]float64{}
	for _, n := range []int{1000, 16000} {
		ev := mustEval(t, src)
		db := luxuryDB(n)
		rule := ev.rules[datalog.Del("items")][0]

		ev.ec.bind(db)
		v := rule.pickVariant(&ev.ec)
		if got := v.steps[0].pred; got != datalog.Del("luxuryitems") {
			t.Fatalf("n=%d: variant driven by %s, want -luxuryitems", n, got)
		}
		rc := v.prepareStream(db, &ev.ec)
		if len(ev.ec.tables) != 0 || len(ev.ec.exists) != 0 {
			t.Fatalf("n=%d: prepared run built %d join and %d exist tables", n, len(ev.ec.tables), len(ev.ec.exists))
		}
		for i, r := range rc.res {
			if r.tab != nil || r.ext != nil || r.ix != nil {
				t.Fatalf("n=%d: step %d of %q probes a table or index: %+v", n, i, v.rule, r)
			}
		}
		rc.release()
		ev.ec.reset()

		if err := ev.Eval(db); err != nil { // warm plans, envs and caches
			t.Fatal(err)
		}
		if got := db.Rel(datalog.Del("items")); !got.Equal(want) {
			t.Fatalf("n=%d: -items = %v, want %v", n, got, want)
		}
		if len(db.Indexes()) != 0 {
			t.Fatalf("n=%d: Eval built maintained indexes %+v", n, db.Indexes())
		}
		allocs[n] = testing.AllocsPerRun(50, func() {
			if err := ev.Eval(db); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1000] != allocs[16000] {
		t.Errorf("warm Eval allocates %v objects at 1k base and %v at 16k, want the same", allocs[1000], allocs[16000])
	}
}

// TestStreamingJoinHashesSmallerSide pins pickVariant's tie-break: both
// drivers of a 2-way join touch |R|+|S| tuples, so the variant that hashes
// fewer wins — R (1000 tuples) is streamed and S (10 tuples) hashed, even
// though S is the earlier body atom.
func TestStreamingJoinHashesSmallerSide(t *testing.T) {
	ev := mustEval(t, `
source r(a:int, b:int).
source s(b:int, c:int).
view v(a:int).
j(X,Z) :- s(Y,Z), r(X,Y).
`)
	db := NewDatabase()
	r, s := value.NewRelation(2), value.NewRelation(2)
	for i := 0; i < 1000; i++ {
		r.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % 10))})
	}
	for i := 0; i < 10; i++ {
		s.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i * 7))})
	}
	db.Set(datalog.Pred("r"), r)
	db.Set(datalog.Pred("s"), s)

	ev.ec.bind(db)
	defer ev.ec.reset()
	v := ev.rules[datalog.Pred("j")][0].pickVariant(&ev.ec)
	if got := v.steps[0].pred; got != datalog.Pred("r") {
		t.Fatalf("variant driven by %s, want r", got)
	}
	rc := v.prepareStream(db, &ev.ec)
	defer rc.release()
	if jt := rc.res[1].tab; jt == nil || len(jt.tuples) != s.Len() {
		t.Fatalf("s step probes %+v, want an ephemeral table over s's %d tuples", rc.res[1], s.Len())
	}
}
