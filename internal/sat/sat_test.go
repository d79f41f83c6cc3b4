package sat

import (
	"context"
	"slices"
	"testing"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/fol"
	"birds/internal/value"
)

func atom(pred string, vars ...string) *fol.Atom {
	args := make([]datalog.Term, len(vars))
	for i, v := range vars {
		args[i] = datalog.V(v)
	}
	return &fol.Atom{Pred: pred, Args: args}
}

// mustFind runs an uncancelled search; Find reports an error only when its
// context is cancelled.
func mustFind(t *testing.T, o *Oracle, p Problem) *eval.Database {
	t.Helper()
	w, err := o.Find(context.Background(), p)
	if err != nil {
		t.Fatalf("uncancelled search failed: %v", err)
	}
	return w
}

func testFO(sentence fol.Formula, consts ...value.Value) func(*eval.Database) bool {
	return func(db *eval.Database) bool {
		m := fol.NewModel(db, consts...)
		return m.Sat(sentence)
	}
}

func TestFindSatisfiableAtom(t *testing.T) {
	o := New(DefaultConfig())
	s := atom("r", "X")
	db := mustFind(t, o, Problem{
		Rels:  []RelSpec{{Name: "r", Types: []string{"int"}}},
		Guide: s,
		Test:  testFO(s),
	})
	if db == nil {
		t.Fatal("∃X r(X) should be satisfiable")
	}
	if db.Rel(datalog.Pred("r")).Empty() {
		t.Fatal("witness should populate r")
	}
}

func TestFindUnsatisfiableContradiction(t *testing.T) {
	o := New(DefaultConfig())
	s := fol.NewAnd(atom("r", "X"), fol.NewNot(atom("r", "X")))
	db := mustFind(t, o, Problem{
		Rels:  []RelSpec{{Name: "r", Types: []string{"int"}}},
		Guide: s,
		Test:  testFO(s),
	})
	if db != nil {
		t.Fatalf("contradiction should have no witness, got\n%s", db)
	}
}

func TestComparisonWitnessNeedsGapValues(t *testing.T) {
	// ∃X r(X) ∧ X > 5 ∧ X < 7 — only X = 6 works; the pool must include
	// the gap value between the constants 5 and 7.
	o := New(DefaultConfig())
	s := fol.NewAnd(
		atom("r", "X"),
		&fol.Cmp{Op: datalog.OpGt, L: datalog.V("X"), R: datalog.CInt(5)},
		&fol.Cmp{Op: datalog.OpLt, L: datalog.V("X"), R: datalog.CInt(7)},
	)
	consts := []value.Value{value.Int(5), value.Int(7)}
	db := mustFind(t, o, Problem{
		Rels:        []RelSpec{{Name: "r", Types: []string{"int"}}},
		ExtraConsts: consts,
		Guide:       s,
		Test:        testFO(s, consts...),
	})
	if db == nil {
		t.Fatal("should find X = 6")
	}
	if !db.Rel(datalog.Pred("r")).Contains(value.Tuple{value.Int(6)}) {
		t.Fatalf("witness should be 6, got %s", db.Rel(datalog.Pred("r")))
	}
}

func TestStringGapValues(t *testing.T) {
	// ∃X r(X) ∧ X > '1962-12-31': needs a string above the constant.
	o := New(DefaultConfig())
	s := fol.NewAnd(
		atom("r", "X"),
		&fol.Cmp{Op: datalog.OpGt, L: datalog.V("X"), R: datalog.CStr("1962-12-31")},
	)
	consts := []value.Value{value.Str("1962-12-31")}
	db := mustFind(t, o, Problem{
		Rels:        []RelSpec{{Name: "r", Types: []string{"date"}}},
		ExtraConsts: consts,
		Guide:       s,
		Test:        testFO(s, consts...),
	})
	if db == nil {
		t.Fatal("should find a date above the constant")
	}
}

func TestUnsatNegationAcrossRelations(t *testing.T) {
	// r ⊆ s required and r ⊄ s required simultaneously: a Test that can
	// never pass; oracle must exhaust and return nil.
	o := New(Config{MaxTuples: 2, RandomTrials: 200, ExhaustiveBudget: 20000, GuideBudget: 2000, Seed: 1})
	sub := fol.NewNot(fol.NewExists([]string{"X"},
		fol.NewAnd(atom("r", "X"), fol.NewNot(atom("s", "X")))))
	notSub := fol.NewNot(sub)
	s := fol.NewAnd(sub, notSub)
	db := mustFind(t, o, Problem{
		Rels: []RelSpec{{Name: "r", Types: []string{"int"}}, {Name: "s", Types: []string{"int"}}},
		Test: testFO(s),
	})
	if db != nil {
		t.Fatal("r⊆s ∧ ¬(r⊆s) should be unsatisfiable")
	}
}

func TestExhaustiveFindsSmallWitness(t *testing.T) {
	// Without a guide, the exhaustive phase must find: ∃X r(X) ∧ ¬s(X).
	o := New(DefaultConfig())
	s := fol.NewAnd(atom("r", "X"), fol.NewNot(atom("s", "X")))
	db := mustFind(t, o, Problem{
		Rels: []RelSpec{{Name: "r", Types: []string{"int"}}, {Name: "s", Types: []string{"int"}}},
		Test: testFO(s),
	})
	if db == nil {
		t.Fatal("exhaustive search should find a witness")
	}
}

func TestRandomSearchFallback(t *testing.T) {
	// Blow past the exhaustive budget with a wide relation; the randomized
	// phase must still find a witness for a satisfiable sentence.
	cfg := DefaultConfig()
	cfg.ExhaustiveBudget = 1
	o := New(cfg)
	s := atom("wide", "A", "B", "C", "D")
	db := mustFind(t, o, Problem{
		Rels: []RelSpec{{Name: "wide", Types: []string{"int", "int", "string", "bool"}}},
		Test: testFO(s),
	})
	if db == nil {
		t.Fatal("random search should find a witness")
	}
}

func TestGuidedSearchSkipsUnknownAtoms(t *testing.T) {
	// Guide mentions a computed relation not in Rels; the oracle must not
	// crash and must fall through to the other phases.
	o := New(DefaultConfig())
	s := fol.NewAnd(atom("computed", "X"), atom("r", "X"))
	db := mustFind(t, o, Problem{
		Rels:  []RelSpec{{Name: "r", Types: []string{"int"}}},
		Guide: s,
		Test: func(db *eval.Database) bool {
			// The witness only needs r nonempty for this test.
			return !db.RelOrEmpty(datalog.Pred("r"), 1).Empty()
		},
	})
	if db == nil {
		t.Fatal("should fall back and find r nonempty")
	}
}

func TestDeltaPredicatesInSpecs(t *testing.T) {
	// +v / -v appear as EDB relations in incrementalized programs.
	o := New(DefaultConfig())
	s := atom("+v", "X")
	db := mustFind(t, o, Problem{
		Rels:  []RelSpec{{Name: "+v", Types: []string{"int"}}},
		Guide: s,
		Test:  testFO(s),
	})
	if db == nil {
		t.Fatal("delta-relation witness should be found")
	}
	if db.Rel(datalog.Ins("v")).Empty() {
		t.Fatal("witness must populate +v under the Ins symbol")
	}
}

func TestSpecsFromDecls(t *testing.T) {
	p, err := datalog.Parse(`
source r(a:int, b:string).
view v(x:int).
`)
	if err != nil {
		t.Fatal(err)
	}
	specs := SpecsFromDecls(append(p.Sources, p.View)...)
	if len(specs) != 2 || specs[0].Name != "r" || specs[0].Arity() != 2 || specs[1].Name != "v" {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].Types[1] != "string" {
		t.Errorf("types = %v", specs[0].Types)
	}
}

func TestPoolsCoverGapsAndBounds(t *testing.T) {
	pl := buildPools([]value.Value{value.Int(5), value.Int(7), value.Str("m")})
	hasInt := func(v int64) bool {
		for _, x := range pl.ints {
			if x.AsInt() == v {
				return true
			}
		}
		return false
	}
	for _, want := range []int64{4, 5, 6, 7, 8} {
		if !hasInt(want) {
			t.Errorf("int pool missing %d: %v", want, pl.ints)
		}
	}
	hasStr := func(s string) bool {
		for _, x := range pl.strings {
			if x.AsString() == s {
				return true
			}
		}
		return false
	}
	if !hasStr("m") || !hasStr("m0") || !hasStr("!") {
		t.Errorf("string pool missing gap values: %v", pl.strings)
	}
	// Empty pools get defaults.
	empty := buildPools(nil)
	if len(empty.ints) == 0 || len(empty.strings) == 0 || len(empty.bools) != 2 || len(empty.floats) == 0 {
		t.Error("default pools should be nonempty")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		o := New(DefaultConfig())
		s := fol.NewAnd(atom("r", "X", "Y"), fol.NewNot(atom("s", "Y")))
		db := mustFind(t, o, Problem{
			Rels: []RelSpec{
				{Name: "r", Types: []string{"int", "string"}},
				{Name: "s", Types: []string{"string"}},
			},
			Guide: s,
			Test:  testFO(s),
		})
		if db == nil {
			return "<nil>"
		}
		return db.String()
	}
	if run() != run() {
		t.Error("oracle is not deterministic")
	}
}

// keyOnR is a precondition on r(k:int, a:int): no two tuples share a key.
var keyOnR = Precondition{Reads: []string{"r"}, Holds: func(db *eval.Database) bool {
	seen := map[value.Value]bool{}
	ok := true
	db.RelOrEmpty(datalog.Pred("r"), 2).Each(func(t value.Tuple) {
		if seen[t[0]] {
			ok = false
		}
		seen[t[0]] = true
	})
	return ok
}}

var keyedRels = []RelSpec{
	{Name: "r", Types: []string{"int", "int"}},
	{Name: "s", Types: []string{"int"}},
}

// searchCount counts the Test calls of one search, and those made on an
// instance that breaks keyOnR.
type searchCount struct{ calls, broken int }

// keyedTest accepts the instances that satisfy keyOnR and the sentence, so
// keyOnR is a precondition of it, and counts its calls in n.
func keyedTest(sentence fol.Formula, n *searchCount, consts ...value.Value) func(*eval.Database) bool {
	sat := testFO(sentence, consts...)
	return func(db *eval.Database) bool {
		n.calls++
		if !keyOnR.Holds(db) {
			n.broken++
			return false
		}
		return sat(db)
	}
}

// TestPreconditionsKeepWitness runs each search with and without the key
// precondition, in each phase of Find, and requires the same witness both
// times: the one pinned below, which the oracle found before it reused
// instances or took preconditions. With the precondition, Test never sees
// an instance that breaks the key.
func TestPreconditionsKeepWitness(t *testing.T) {
	lt := func(l, r string) *fol.Cmp { return &fol.Cmp{Op: datalog.OpLt, L: datalog.V(l), R: datalog.V(r)} }
	// A key-breaking pair: the guide's first disjunct where it appears.
	pair := fol.NewAnd(atom("r", "X", "Y"), atom("r", "X", "Z"), lt("Y", "Z"))
	cycle := fol.NewAnd(atom("r", "X", "Y"), atom("r", "Y", "X"), lt("X", "Y"), fol.NewNot(atom("s", "X")))
	sentences := map[string]fol.Formula{
		"pair-or-cycle": fol.NewOr(fol.NewAnd(pair, atom("s", "X")), cycle),
		"pair-only":     pair, // no witness satisfies the key
		"cycle":         cycle,
		"s-without-r":   fol.NewAnd(atom("s", "X"), fol.NewNot(fol.NewExists([]string{"Y"}, atom("r", "X", "Y")))),
		// Rejects the first candidate of each phase, so a tuple leaking
		// into the next one changes the witness.
		"r-no-loop": fol.NewAnd(atom("r", "X", "Y"), fol.NewNot(atom("r", "Y", "Y"))),
	}
	const cycleWitness = "r = {(4, 5), (5, 4)}\ns = {}\n"
	want := map[string]string{
		"guided/pair-or-cycle":     cycleWitness,
		"guided/pair-only":         "<nil>",
		"guided/cycle":             cycleWitness,
		"guided/s-without-r":       "r = {}\ns = {(4)}\n",
		"guided/r-no-loop":         "r = {(4, 5)}\ns = {}\n",
		"exhaustive/pair-or-cycle": cycleWitness,
		"exhaustive/pair-only":     "<nil>",
		"exhaustive/cycle":         cycleWitness,
		"exhaustive/s-without-r":   "r = {}\ns = {(4)}\n",
		"exhaustive/r-no-loop":     "r = {(4, 4), (5, 6)}\ns = {}\n",
		"random/pair-or-cycle":     "r = {(4, 5), (5, 4)}\ns = {(5)}\n",
		"random/pair-only":         "<nil>",
		"random/cycle":             "r = {(4, 5), (5, 4)}\ns = {(5)}\n",
		"random/s-without-r":       "r = {}\ns = {(4), (5)}\n",
		"random/r-no-loop":         "r = {(4, 5)}\ns = {(5)}\n",
	}
	consts := []value.Value{value.Int(5)}
	phases := []struct {
		name   string
		cfg    Config
		guided bool
	}{
		{"guided", DefaultConfig(), true},
		{"exhaustive", DefaultConfig(), false},
		{"random", Config{MaxTuples: 3, RandomTrials: 3000, ExhaustiveBudget: 0, Seed: 7}, false},
	}
	for _, ph := range phases {
		for name, s := range sentences {
			key := ph.name + "/" + name
			t.Run(key, func(t *testing.T) {
				find := func(pre []Precondition) (string, searchCount) {
					var n searchCount
					p := Problem{
						Rels:        keyedRels,
						ExtraConsts: consts,
						Test:        keyedTest(s, &n, consts...),
						Pre:         pre,
					}
					if ph.guided {
						p.Guide = s
					}
					if w := mustFind(t, New(ph.cfg), p); w != nil {
						return w.String(), n
					}
					return "<nil>", n
				}
				gotWithout, without := find(nil)
				got, with := find([]Precondition{keyOnR})
				if got != want[key] || gotWithout != want[key] {
					t.Fatalf("witness with preconditions:\n%s\nwithout:\n%s\nwant:\n%s", got, gotWithout, want[key])
				}
				if with.broken != 0 {
					t.Errorf("Test called on %d instances that break the precondition", with.broken)
				}
				if with.calls != without.calls-without.broken {
					t.Errorf("Test calls: %d with preconditions, want %d (%d without, %d of them breaking the key)",
						with.calls, without.calls-without.broken, without.calls, without.broken)
				}
			})
		}
	}
}

// TestExhaustivePrunesSubtrees checks that a precondition on Rels[0] is
// decided once per subset of r and skips every instance below a failing
// one: no Test call for any combination of s with a key-breaking r.
func TestExhaustivePrunesSubtrees(t *testing.T) {
	// The reduced int pool is {4, 5, 6}: r has 9 candidate tuples, so
	// 1+9+36 = 46 subsets of at most two, 9 of them a pair sharing a key;
	// s has 3 candidate tuples and 1+3+3 = 7 subsets.
	const rSubsets, rBreaking, sSubsets = 46, 9, 7
	var n searchCount
	holds := 0
	pre := Precondition{Reads: keyOnR.Reads, Holds: func(db *eval.Database) bool {
		holds++
		return keyOnR.Holds(db)
	}}
	// Without a guide and random trials, Find runs the exhaustive phase
	// only.
	w := mustFind(t, New(Config{ExhaustiveBudget: 150000}), Problem{
		Rels:        keyedRels,
		ExtraConsts: []value.Value{value.Int(5)},
		Test:        keyedTest(fol.Truth{B: false}, &n),
		Pre:         []Precondition{pre},
	})
	if w != nil {
		t.Fatalf("no instance satisfies false, got\n%s", w)
	}
	if holds != rSubsets {
		t.Errorf("precondition checked %d times, want once per subset of r (%d)", holds, rSubsets)
	}
	if want := (rSubsets - rBreaking) * sSubsets; n.calls != want {
		t.Errorf("Test called %d times, want %d: the %d×%d instances under a key-breaking r are pruned",
			n.calls, want, rBreaking, sSubsets)
	}
	if n.broken != 0 {
		t.Errorf("Test called on %d instances that break the precondition", n.broken)
	}
}

// cancelPhases runs one phase of the search each: the configurations give
// the other phases no budget.
var cancelPhases = []struct {
	name   string
	cfg    Config
	guided bool
}{
	{"guided", Config{GuideBudget: 1000}, true},
	{"exhaustive", Config{ExhaustiveBudget: 150000}, false},
	{"random", Config{MaxTuples: 3, RandomTrials: 1000, Seed: 7}, false},
}

// cancelProblem is a search without a witness over keyedRels whose Test
// counts its calls and cancels the search at call cancelAt (never, if 0).
func cancelProblem(guided bool, calls *int, cancelAt int, cancel context.CancelFunc) Problem {
	p := Problem{
		Rels:        keyedRels,
		ExtraConsts: []value.Value{value.Int(5)},
		Test: func(*eval.Database) bool {
			*calls++
			if *calls == cancelAt {
				cancel()
			}
			return false
		},
	}
	if guided {
		p.Guide = fol.NewAnd(atom("r", "X", "Y"), atom("s", "Y"))
	}
	return p
}

// TestFindCancelledBeforeStart checks that a search whose context is
// already cancelled tests no candidate and reports the cancellation rather
// than "no witness".
func TestFindCancelledBeforeStart(t *testing.T) {
	for _, ph := range cancelPhases {
		t.Run(ph.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			calls := 0
			w, err := New(ph.cfg).Find(ctx, cancelProblem(ph.guided, &calls, 0, cancel))
			if w != nil || err != context.Canceled {
				t.Fatalf("Find = %v, %v; want nil, context.Canceled", w, err)
			}
			if calls != 0 {
				t.Errorf("Test called %d times after cancellation", calls)
			}
		})
	}
}

// TestFindCancelledMidSearch cancels each phase from inside its third Test
// call: the search stops within that candidate and reports the
// cancellation, while the same search uncancelled tests many more
// candidates and reports no witness.
func TestFindCancelledMidSearch(t *testing.T) {
	const cancelAt = 3
	for _, ph := range cancelPhases {
		t.Run(ph.name, func(t *testing.T) {
			all := 0
			if w := mustFind(t, New(ph.cfg), cancelProblem(ph.guided, &all, 0, nil)); w != nil {
				t.Fatalf("no instance is a witness, got\n%s", w)
			}
			if all <= cancelAt {
				t.Fatalf("the uncancelled search tests %d candidates; need more than %d", all, cancelAt)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls := 0
			w, err := New(ph.cfg).Find(ctx, cancelProblem(ph.guided, &calls, cancelAt, cancel))
			if w != nil || err != context.Canceled {
				t.Fatalf("Find = %v, %v; want nil, context.Canceled", w, err)
			}
			if calls != cancelAt {
				t.Errorf("Test called %d times, want %d: the search must stop at the candidate that cancelled it", calls, cancelAt)
			}
		})
	}
}

// scopeRecorder is a Test that accepts nothing and records, per call,
// whether the instance lies in the exhaustive phase's scope — at most two
// tuples per relation, every value from the reduced pools — and its
// rendering.
type scopeRecorder struct {
	scope    *pools
	inScope  []bool
	rendered []string
}

func (r *scopeRecorder) test(db *eval.Database) bool {
	in := true
	for _, spec := range keyedRels {
		rel := db.RelOrEmpty(datalog.Pred(spec.Name), spec.Arity())
		in = in && rel.Len() <= scopeTuples
		rel.Each(func(t value.Tuple) {
			for j, v := range t {
				in = in && slices.ContainsFunc(r.scope.forType(spec.Types[j]), v.Equal)
			}
		})
	}
	r.inScope = append(r.inScope, in)
	r.rendered = append(r.rendered, db.String())
	return false
}

// TestRandomSkipsCoveredScope runs a search without a witness with and
// without the exhaustive phase. When the exhaustive phase covered its
// scope, the random phase tests no instance inside it, and tests every
// other trial, the same instances in the same order as when the exhaustive
// phase was skipped for its budget and every trial was tested.
func TestRandomSkipsCoveredScope(t *testing.T) {
	consts := []value.Value{value.Int(5)}
	const trials = 600
	// The reduced int pool is {4, 5, 6}: r has 1+9+36 = 46 subsets of at
	// most two tuples and s has 1+3+3 = 7, so the exhaustive phase tests
	// 322 instances.
	const exhaustiveCalls = 46 * 7
	find := func(budget int) *scopeRecorder {
		rec := &scopeRecorder{scope: buildPools(consts).reduced()}
		cfg := Config{MaxTuples: 3, RandomTrials: trials, ExhaustiveBudget: budget, Seed: 7}
		if w := mustFind(t, New(cfg), Problem{Rels: keyedRels, ExtraConsts: consts, Test: rec.test}); w != nil {
			t.Fatalf("nothing is a witness, got\n%s", w)
		}
		return rec
	}

	skipped := find(0)
	if len(skipped.inScope) != trials {
		t.Fatalf("exhaustive phase skipped: %d Test calls, want one per trial (%d)", len(skipped.inScope), trials)
	}
	var outside []string
	for i, in := range skipped.inScope {
		if !in {
			outside = append(outside, skipped.rendered[i])
		}
	}
	if len(outside) == trials || len(outside) == 0 {
		t.Fatalf("%d of %d trials lie outside the scope; the check needs both kinds", len(outside), trials)
	}

	covered := find(150000)
	if len(covered.inScope) < exhaustiveCalls {
		t.Fatalf("%d Test calls, fewer than the exhaustive phase's %d", len(covered.inScope), exhaustiveCalls)
	}
	for i, in := range covered.inScope[:exhaustiveCalls] {
		if !in {
			t.Fatalf("exhaustive call %d outside the scope:\n%s", i, covered.rendered[i])
		}
	}
	random := covered.rendered[exhaustiveCalls:]
	for i, in := range covered.inScope[exhaustiveCalls:] {
		if in {
			t.Fatalf("random trial tested inside the covered scope:\n%s", random[i])
		}
	}
	if !slices.Equal(random, outside) {
		t.Fatalf("random phase tested %d instances, want the %d out-of-scope trials of the uncovered search, in order",
			len(random), len(outside))
	}
}

// TestRandomTestsAllWhenNotCovered checks that the random phase tests
// every trial that passes the preconditions when the exhaustive phase did
// not cover its scope: skipped for its budget, or ended by a witness.
func TestRandomTestsAllWhenNotCovered(t *testing.T) {
	consts := []value.Value{value.Int(5)}
	full := buildPools(consts)
	scope := full.reduced()
	o := New(Config{MaxTuples: 3, RandomTrials: 400, ExhaustiveBudget: 150000, Seed: 7})
	ctx := context.Background()

	// A witness ends the exhaustive phase: s holds a tuple.
	hasS := func(db *eval.Database) bool { return !db.RelOrEmpty(datalog.Pred("s"), 1).Empty() }
	if w, covered := o.exhaustive(ctx, Problem{Rels: keyedRels, Test: hasS}, scope); w == nil || covered {
		t.Fatalf("exhaustive = %v, covered %v; want a witness, not covered", w, covered)
	}
	if w, covered := New(Config{ExhaustiveBudget: 10}).exhaustive(ctx, Problem{Rels: keyedRels, Test: hasS}, scope); w != nil || covered {
		t.Fatalf("over budget: exhaustive = %v, covered %v; want neither", w, covered)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if w, covered := o.exhaustive(cancelled, Problem{Rels: keyedRels, Test: hasS}, scope); w != nil || covered {
		t.Fatalf("cancelled: exhaustive = %v, covered %v; want neither", w, covered)
	}

	holds, passed := 0, 0
	pre := Precondition{Reads: keyOnR.Reads, Holds: func(db *eval.Database) bool {
		holds++
		ok := keyOnR.Holds(db)
		if ok {
			passed++
		}
		return ok
	}}
	rec := &scopeRecorder{scope: scope}
	p := Problem{Rels: keyedRels, ExtraConsts: consts, Test: rec.test, Pre: []Precondition{pre}}
	if w := o.random(ctx, p, full, scope, false); w != nil {
		t.Fatalf("nothing is a witness, got\n%s", w)
	}
	if holds != 400 || len(rec.inScope) != passed {
		t.Fatalf("precondition checked on %d trials, want 400; Test called %d times, want %d (every trial passing it)",
			holds, len(rec.inScope), passed)
	}
	if !slices.Contains(rec.inScope, true) {
		t.Fatal("no trial inside the scope was drawn; the check needs some")
	}
}
