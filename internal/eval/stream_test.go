package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

// Differential harness for the streaming executor (stream.go): streaming and
// materialized execution must agree with each other and with the naive
// reference evaluator over the random-program corpus; the counted-IVM
// initialization must produce bit-identical support counts in both modes;
// and the streaming path's per-output-tuple allocation budget is pinned so
// lazy pipelines never regress into per-probe allocations.

var execModes = []ExecMode{ExecStreaming, ExecMaterialized}

// streamEvaluators compiles prog once per execution mode.
func streamEvaluators(t *testing.T, prog *datalog.Program) map[string]*Evaluator {
	t.Helper()
	evs := make(map[string]*Evaluator)
	for _, mode := range execModes {
		ev, err := New(prog)
		if err != nil {
			t.Fatal(err)
		}
		ev.SetExecMode(mode)
		evs[mode.String()] = ev
	}
	return evs
}

// TestStreamingModesMatchReferenceFuzz generates random well-formed
// programs and EDBs and asserts streaming ≡ materialized ≡ reference for
// execution mode.
func TestStreamingModesMatchReferenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	const programs, trials = 15, 3
	for pi := 0; pi < programs; pi++ {
		src := genProgram(rng)
		prog := mustProg(t, src)
		evs := streamEvaluators(t, prog)
		for trial := 0; trial < trials; trial++ {
			db := genEDB(rng)
			want := refEval(t, prog, db)
			for label, ev := range evs {
				got := db.Clone()
				if err := ev.Eval(got); err != nil {
					t.Fatalf("program %d trial %d %s: %v\n%s", pi, trial, label, err, src)
				}
				for sym := range prog.IDBPreds() {
					w, g := want.Rel(sym), got.Rel(sym)
					if (g == nil) != (w == nil) || (g != nil && !g.Equal(w)) {
						t.Fatalf("program %d trial %d %s: %s differs from reference\ngot=%v\nref=%v\nprogram:\n%s\nEDB:\n%s",
							pi, trial, label, sym, g, w, src, db)
					}
				}
			}
		}
	}
}

// TestStreamingCorpusModesMatch runs the hand-shaped corpus (joins,
// negation, constants, comparisons, equality binding, unions) through every
// execution mode against the reference.
func TestStreamingCorpusModesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for pi, src := range referenceCorpus {
		prog := mustProg(t, src)
		evs := streamEvaluators(t, prog)
		edb := map[string]int{}
		for _, s := range prog.Sources {
			edb[s.Name] = s.Arity()
		}
		edb[prog.View.Name] = prog.View.Arity()
		for trial := 0; trial < 10; trial++ {
			db := NewDatabase()
			for name, arity := range edb {
				rel := value.NewRelation(arity)
				for i := 0; i < rng.Intn(6); i++ {
					tu := make(value.Tuple, arity)
					for j := range tu {
						tu[j] = value.Int(int64(rng.Intn(4)))
					}
					rel.Add(tu)
				}
				db.Set(datalog.Pred(name), rel)
			}
			want := refEval(t, prog, db)
			for label, ev := range evs {
				got := db.Clone()
				if err := ev.Eval(got); err != nil {
					t.Fatal(err)
				}
				assertSameIDB(t, prog, got, want, fmt.Sprintf("corpus %d trial %d %s", pi, trial, label))
			}
		}
	}
}

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
// initialization: streaming and materialized init must produce the same
// IDB relations, the same reported deltas, and bit-identical support
// counts.
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
			evStream, err := New(prog)
			if err != nil {
				t.Fatal(err)
			}
			evStream.SetExecMode(ExecStreaming)
			evMat, err := New(prog)
			if err != nil {
				t.Fatal(err)
			}
			evMat.SetExecMode(ExecMaterialized)

			dbS, dbM := db.Clone(), db.Clone()
			outS, err := evStream.EvalDelta(dbS, nil)
			if err != nil {
				t.Fatalf("%s: streaming init: %v\n%s", label, err, src)
			}
			outM, err := evMat.EvalDelta(dbM, nil)
			if err != nil {
				t.Fatalf("%s: materialized init: %v\n%s", label, err, src)
			}
			assertSameIDB(t, prog, dbS, dbM, label)
			assertSameCounts(t, prog, evStream, evMat, label)
			if len(outS) != len(outM) {
				t.Fatalf("%s: init deltas differ: %d vs %d predicates", label, len(outS), len(outM))
			}
			for sym, dS := range outS {
				dM, ok := outM[sym]
				if !ok {
					t.Fatalf("%s: init delta for %s only in streaming", label, sym)
				}
				if !dS.Ins.Equal(dM.Ins) || !dS.Del.Equal(dM.Del) {
					t.Fatalf("%s: init delta for %s differs\nstream=+%v -%v\nmat=+%v -%v",
						label, sym, dS.Ins, dS.Del, dM.Ins, dM.Del)
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
	if db.existingIndex(datalog.Pred("s"), nil) != nil {
		t.Fatal("streaming evaluation built a maintained index for a keyless negation")
	}
}
