package eval

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

// fuzzKnob reads an integer override from the environment, for heavier
// local sweeps (e.g. IVM_FUZZ_SEED=7 IVM_FUZZ_TRIALS=50 go test -run
// EvalDeltaMatches ./internal/eval/); CI runs the deterministic defaults.
func fuzzKnob(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// Differential fuzz for counting-based IVM: random DML sequences over the
// EDB, asserting after every step that EvalDelta-maintained IDB relations
// are set-identical to a full recompute and to the naive reference
// evaluator, and that the reported IDB deltas exactly bridge consecutive
// states.

// ivmCorpus extends the reference corpus with negation-heavy and
// projection-heavy shapes that stress the flip-key handling of negated
// delta drivers (anonymous variables, repeated variables, constants,
// negation chains across strata, fully anonymous guards).
var ivmCorpus = append(referenceCorpus,
	`
source r(a:int, b:int).
source s(a:int).
view v(a:int).
n1(X) :- r(X,_), not s(X).
n2(X,Y) :- r(X,Y), not r(Y,X).
n3(X) :- s(X), not r(X,X).
`,
	`
source r(a:int, b:int).
source s(a:int, b:int).
view v(a:int).
g(X) :- r(X,_), not s(X,_).
h(X) :- r(X,_), not s(_,_).
k(X) :- r(X,Y), not s(X,Y), not s(Y,X).
`,
	`
source p(a:int).
source q(a:int).
view v(a:int).
w1(X) :- p(X), not q(X).
w2(X) :- q(X), not w1(X).
w3(X) :- w2(X), not w1(X), X < 3.
w4(X) :- p(X), not w3(X), not q(X).
`,
	`
source r(a:int, b:int).
view v(a:int).
j(X,Z) :- r(X,Y), r(Y,Z).
t(X) :- j(X,X).
u(X) :- r(X,_), not j(X,_).
`,
	// Fully bound positive atoms, read in old and new mode: membership
	// tests with bound variables, constants and a repeated variable.
	`
source r(a:int, b:int, c:int).
source s(a:int, b:int).
view v(a:int, b:int, c:int).
d(X,Y,Z) :- r(X,Y,Z), Z > 1, v(X,Y,Z).
e(X) :- s(X,Y), r(X,Y,1), s(Y,X).
f(X) :- s(X,X), r(X,X,X).
`,
)

// applyRandomDML mutates one random EDB tuple in db, accumulating the net
// change into deltas (exact net semantics: an insert cancelling a pending
// delete nets out, and vice versa).
func applyRandomDML(rng *rand.Rand, db *Database, edb map[string]int, deltas map[datalog.PredSym]Delta) {
	names := make([]string, 0, len(edb))
	for n := range edb {
		names = append(names, n)
	}
	// Deterministic pick order regardless of map iteration.
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	name := names[rng.Intn(len(names))]
	p := datalog.Pred(name)
	arity := edb[name]
	d, ok := deltas[p]
	if !ok {
		d = NewDelta(arity)
		deltas[p] = d
	}
	t := make(value.Tuple, arity)
	for j := range t {
		t[j] = value.Int(int64(rng.Intn(4)))
	}
	if rng.Intn(2) == 0 {
		if db.Insert(p, t) {
			if !d.Del.Remove(t) {
				d.Ins.Add(t)
			}
		}
	} else {
		if db.Delete(p, t) {
			if !d.Ins.Remove(t) {
				d.Del.Add(t)
			}
		}
	}
}

func TestEvalDeltaMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(int64(fuzzKnob("IVM_FUZZ_SEED", 4242))))
	trials := fuzzKnob("IVM_FUZZ_TRIALS", 6)
	for pi, src := range ivmCorpus {
		prog := mustProg(t, src)
		evIVM, err := New(prog)
		if err != nil {
			t.Fatalf("program %d: %v", pi, err)
		}
		evFull, err := New(prog)
		if err != nil {
			t.Fatal(err)
		}

		edb := map[string]int{}
		for _, s := range prog.Sources {
			edb[s.Name] = s.Arity()
		}
		edb[prog.View.Name] = prog.View.Arity()

		for trial := 0; trial < trials; trial++ {
			db := NewDatabase()
			for name, arity := range edb {
				rel := value.NewRelation(arity)
				for i := 0; i < rng.Intn(8); i++ {
					tu := make(value.Tuple, arity)
					for j := range tu {
						tu[j] = value.Int(int64(rng.Intn(4)))
					}
					rel.Add(tu)
				}
				db.Set(datalog.Pred(name), rel)
			}
			// First call initializes the support counts (full counted eval).
			if _, err := evIVM.EvalDelta(db, nil); err != nil {
				t.Fatalf("program %d: init: %v", pi, err)
			}

			for step := 0; step < 30; step++ {
				// Snapshot IDB state to validate the reported deltas bridge it.
				prev := make(map[datalog.PredSym]*value.Relation)
				for sym := range prog.IDBPreds() {
					prev[sym] = db.RelOrEmpty(sym, evIVM.arities[sym]).Clone()
				}

				deltas := make(map[datalog.PredSym]Delta)
				nOps := 1 + rng.Intn(4)
				for k := 0; k < nOps; k++ {
					applyRandomDML(rng, db, edb, deltas)
				}
				idbDeltas, err := evIVM.EvalDelta(db, deltas)
				if err != nil {
					t.Fatalf("program %d step %d: EvalDelta: %v", pi, step, err)
				}

				// Full recompute over a clone of the post-DML EDB.
				full := NewDatabase()
				for name, arity := range edb {
					full.Set(datalog.Pred(name), db.RelOrEmpty(datalog.Pred(name), arity).Clone())
				}
				if err := evFull.Eval(full); err != nil {
					t.Fatal(err)
				}
				ref := refEval(t, prog, full)

				for sym := range prog.IDBPreds() {
					got := db.RelOrEmpty(sym, evIVM.arities[sym])
					want := full.RelOrEmpty(sym, evIVM.arities[sym])
					if !got.Equal(want) {
						t.Fatalf("program %d trial %d step %d: %s: incremental %v != full %v\nEDB:\n%s",
							pi, trial, step, sym, got, want, db)
					}
					refRel := ref.RelOrEmpty(sym, evIVM.arities[sym])
					if !want.Equal(refRel) {
						t.Fatalf("program %d trial %d step %d: %s: full %v != reference %v",
							pi, trial, step, sym, want, refRel)
					}
					// The reported delta must bridge prev → got exactly.
					d, ok := idbDeltas[sym]
					if !ok {
						d = NewDelta(got.Arity())
					}
					bridged := prev[sym].Clone()
					if d.Del != nil {
						bridged.SubtractAll(d.Del)
					}
					if d.Ins != nil {
						bridged.UnionWith(d.Ins)
					}
					if !bridged.Equal(got) {
						t.Fatalf("program %d trial %d step %d: %s: delta %v/%v does not bridge %v -> %v",
							pi, trial, step, sym, d.Ins, d.Del, prev[sym], got)
					}
					// Deltas must be normalized: disjoint and effective.
					if d.Ins != nil && d.Del != nil && !d.Ins.Intersect(d.Del).Empty() {
						t.Fatalf("program %d step %d: %s: overlapping delta", pi, step, sym)
					}
				}
			}
		}
	}
}

// TestEvalDeltaAfterFullEvalReinitializes pins the invalidation contract: a
// full Eval whose output differs from the materialized state drops the
// counts, and the next EvalDelta re-initializes rather than propagating
// against stale state — while a no-op Eval (nothing changed, so the counts
// still describe the installed relations exactly) keeps the state, and a
// later EvalDelta propagates incrementally instead of re-initializing.
func TestEvalDeltaAfterFullEvalReinitializes(t *testing.T) {
	prog := mustProg(t, `
source r(a:int).
source s(a:int).
view v(a:int).
d(X) :- r(X), not s(X).
`)
	ev, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Set(datalog.Pred("r"), value.RelationOf(1, value.Tuple{value.Int(1)}, value.Tuple{value.Int(2)}))
	db.Set(datalog.Pred("s"), value.RelationOf(1, value.Tuple{value.Int(2)}))
	if _, err := ev.EvalDelta(db, nil); err != nil {
		t.Fatal(err)
	}
	if !ev.IVMReady(db) {
		t.Fatal("expected IVM state after EvalDelta")
	}

	// Regression (ISSUE 9): a full Eval over an unchanged database is a
	// no-op per predicate, so the support counts survive it.
	if err := ev.Eval(db); err != nil {
		t.Fatal(err)
	}
	if !ev.IVMReady(db) {
		t.Fatal("no-op full Eval must keep IVM state")
	}
	if got := ev.SupportCount(datalog.Pred("d"), value.Tuple{value.Int(1)}); got != 1 {
		t.Fatalf("support of d(1) after no-op Eval = %d, want 1", got)
	}

	// Mutate the EDB outside EvalDelta: the next full Eval produces a
	// different d, which must invalidate the counts.
	db.Insert(datalog.Pred("r"), value.Tuple{value.Int(3)})
	if err := ev.Eval(db); err != nil {
		t.Fatal(err)
	}
	if ev.IVMReady(db) {
		t.Fatal("full Eval with changed output must invalidate IVM state")
	}
	// The next EvalDelta re-initializes against the current EDB.
	if _, err := ev.EvalDelta(db, nil); err != nil {
		t.Fatal(err)
	}
	want := value.RelationOf(1, value.Tuple{value.Int(1)}, value.Tuple{value.Int(3)})
	if got := db.Rel(datalog.Pred("d")); !got.Equal(want) {
		t.Fatalf("d = %v, want %v", got, want)
	}
	if !ev.IVMReady(db) {
		t.Fatal("expected IVM state after re-init")
	}
}
