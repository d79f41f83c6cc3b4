package core

import (
	"math/rand"
	"testing"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/sat"
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

func mustPutback(t *testing.T, src string) *Putback {
	t.Helper()
	pb, err := NewPutback(mustProg(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

func mustRules(t *testing.T, srcs ...string) []*datalog.Rule {
	t.Helper()
	var out []*datalog.Rule
	for _, s := range srcs {
		r, err := datalog.ParseRule(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// testOptions keeps unit tests fast while preserving the layered search.
func testOptions() Options {
	return Options{Oracle: sat.Config{
		MaxTuples:        3,
		RandomTrials:     800,
		ExhaustiveBudget: 30000,
		GuideBudget:      30000,
		Seed:             1,
	}}
}

const unionSrc = `
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), not v(X).
+r1(X) :- v(X), not r1(X), not r2(X).
`

func TestValidateUnionWithExpectedGet(t *testing.T) {
	pb := mustPutback(t, unionSrc)
	get := mustRules(t, "v(X) :- r1(X).", "v(X) :- r2(X).")
	res, err := Validate(pb, get, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("union strategy should be valid, failure: %v", res.Failure)
	}
	if !res.UsedExpected {
		t.Error("expected get should have been accepted")
	}
	if !res.Class.LVGN() {
		t.Error("union strategy should be LVGN")
	}
}

func TestValidateUnionDerivesGet(t *testing.T) {
	pb := mustPutback(t, unionSrc)
	res, err := Validate(pb, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("union strategy should be valid, failure: %v", res.Failure)
	}
	if res.UsedExpected || res.Get == nil {
		t.Fatal("get should have been derived")
	}
	if res.Decomp == nil {
		t.Fatal("derivation should record the decomposition")
	}

	// The derived get must compute R1 ∪ R2 on random instances.
	getEv, err := eval.New(GetProgram(pb.Prog, res.Get))
	if err != nil {
		t.Fatalf("derived get does not compile: %v", err)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		db := eval.NewDatabase()
		r1, r2 := value.NewRelation(1), value.NewRelation(1)
		for i := 0; i < rng.Intn(5); i++ {
			r1.Add(value.Tuple{value.Int(int64(rng.Intn(6)))})
		}
		for i := 0; i < rng.Intn(5); i++ {
			r2.Add(value.Tuple{value.Int(int64(rng.Intn(6)))})
		}
		db.Set(datalog.Pred("r1"), r1)
		db.Set(datalog.Pred("r2"), r2)
		got, err := getEv.EvalQuery(db, datalog.Pred("v"))
		if err != nil {
			t.Fatal(err)
		}
		want := r1.Clone()
		want.UnionWith(r2)
		if !got.Equal(want) {
			t.Fatalf("derived get = %v, want %v", got, want)
		}
	}
}

func TestValidateRejectsIllDefined(t *testing.T) {
	pb := mustPutback(t, `
source r(a:int).
view v(a:int).
+r(X) :- v(X).
-r(X) :- v(X), r(X).
`)
	res, err := Validate(pb, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Fatal("contradictory program should be invalid")
	}
	if res.Failure.Pass != PassWellDefined {
		t.Errorf("expected well-definedness failure, got %v", res.Failure)
	}
	if res.Failure.Witness == nil {
		t.Error("a witness instance should be reported")
	}
}

func TestValidateRejectsPutGetViolation(t *testing.T) {
	// Deletes view members from the source, inserts non-members: the only
	// steady state is V = ∅, so get = ∅, and any insertion breaks PutGet.
	pb := mustPutback(t, `
source r(a:int).
view v(a:int).
-r(X) :- r(X), v(X).
+r(X) :- v(X), not r(X).
`)
	res, err := Validate(pb, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Fatal("program should fail PutGet")
	}
	if res.Failure.Pass != PassPutGet && res.Failure.Pass != PassWellDefined {
		t.Errorf("unexpected failing pass %q: %v", res.Failure.Pass, res.Failure)
	}
}

func TestValidateRejectsNoSteadyState(t *testing.T) {
	// r1 must be ⊆ V and r2 must be disjoint from V: impossible when
	// r1 ∩ r2 ≠ ∅, so no view definition satisfies GetPut.
	pb := mustPutback(t, `
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), v(X).
`)
	res, err := Validate(pb, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Fatal("program without steady state should be invalid")
	}
	if res.Failure.Pass != PassGetDerivation {
		t.Errorf("expected get-derivation failure, got pass %q: %v", res.Failure.Pass, res.Failure)
	}
	if res.Failure.Witness == nil {
		t.Error("φ1 ∧ φ2 witness should be reported")
	}
}

func TestValidateRejectsViewFreeDelta(t *testing.T) {
	// -r fires regardless of the view: φ3 is satisfiable (any r tuple with
	// a > 5 means no steady state).
	pb := mustPutback(t, `
source r(a:int).
view v(a:int).
-r(X) :- r(X), X > 5.
`)
	res, err := Validate(pb, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Fatal("view-free deletion should be invalid")
	}
	if res.Failure.Pass != PassGetDerivation {
		t.Errorf("expected φ3 failure, got %v", res.Failure)
	}
}

func TestValidateSelectionNeedsConstraint(t *testing.T) {
	base := `
source r(a:int).
view v(a:int).
+r(X) :- v(X), not r(X).
-r(X) :- r(X), X > 2, not v(X).
`
	// Without the constraint: inserting 1 into the view is not reflected
	// by get (selection X > 2), so PutGet fails.
	pb := mustPutback(t, base)
	res, err := Validate(pb, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Fatal("selection strategy without constraint should fail PutGet")
	}
	if res.Failure.Pass != PassPutGet {
		t.Errorf("expected PutGet failure, got %v", res.Failure)
	}

	// With the domain constraint rejecting out-of-range view tuples, the
	// strategy is valid (the residents1962 pattern of §3.3).
	pb2 := mustPutback(t, base+"_|_ :- v(X), not X > 2.\n")
	res2, err := Validate(pb2, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Valid {
		t.Fatalf("constrained selection strategy should be valid: %v", res2.Failure)
	}

	// And the derived get must be the selection σ_{X>2}(r).
	getEv, err := eval.New(GetProgram(pb2.Prog, res2.Get))
	if err != nil {
		t.Fatalf("derived get does not compile: %v\n%v", err, res2.Get)
	}
	db := eval.NewDatabase()
	r := value.NewRelation(1)
	for _, x := range []int64{1, 2, 3, 7} {
		r.Add(value.Tuple{value.Int(x)})
	}
	db.Set(datalog.Pred("r"), r)
	got, err := getEv.EvalQuery(db, datalog.Pred("v"))
	if err != nil {
		t.Fatal(err)
	}
	want := value.RelationOf(1, value.Tuple{value.Int(3)}, value.Tuple{value.Int(7)})
	if !got.Equal(want) {
		t.Fatalf("derived get = %v, want %v", got, want)
	}
}

func TestValidateExpectedGetWrongFallsBack(t *testing.T) {
	// The expected get (intersection) does not satisfy GetPut with the
	// union strategy; Algorithm 1 falls through to derivation and still
	// certifies validity with the derived union get.
	pb := mustPutback(t, unionSrc)
	wrong := mustRules(t, "v(X) :- r1(X), r2(X).")
	res, err := Validate(pb, wrong, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("should fall back to derivation: %v", res.Failure)
	}
	if res.UsedExpected {
		t.Error("wrong expected get must not be accepted")
	}
}

func TestValidateCaseStudyCed(t *testing.T) {
	// The ced view of §3.3 (set difference): ced = ed \ eed.
	pb := mustPutback(t, `
source ed(e:string, d:string).
source eed(e:string, d:string).
view ced(e:string, d:string).
+ed(E,D) :- ced(E,D), not ed(E,D).
-eed(E,D) :- ced(E,D), eed(E,D).
+eed(E,D) :- ed(E,D), not ced(E,D), not eed(E,D).
`)
	get := mustRules(t, "ced(E,D) :- ed(E,D), not eed(E,D).")
	res, err := Validate(pb, get, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("ced strategy should be valid: %v", res.Failure)
	}
	if !res.UsedExpected {
		t.Error("expected difference get should be accepted")
	}
	if !res.Class.LVGN() {
		t.Errorf("ced should be LVGN: %v", res.Class.Violations)
	}
}

func TestValidateResidents(t *testing.T) {
	// The residents union-of-three view of §3.3 with gender dispatch.
	pb := mustPutback(t, `
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
`)
	get := mustRules(t,
		"residents(E,B,G) :- others(E,B,G).",
		"residents(E,B,'F') :- female(E,B).",
		"residents(E,B,'M') :- male(E,B).",
	)
	res, err := Validate(pb, get, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("residents strategy should be valid: %v", res.Failure)
	}
	if !res.UsedExpected {
		t.Error("expected residents get should be accepted")
	}
}

func TestValidateResidentsBuggyCaught(t *testing.T) {
	// Mutant: -male forgets the gender filter, deleting every male not in
	// the view at all genders — GetPut breaks (a male row whose view tuple
	// carries gender 'M' is fine, but the mutant deletes rows for views
	// that list the person with a different birthdate only).
	pb := mustPutback(t, `
source male(e:string, b:date).
source others(e:string, b:date, g:string).
view residents(e:string, b:date, g:string).
+male(E,B) :- residents(E,B,'M'), not male(E,B), not others(E,B,'M').
-male(E,B) :- male(E,B), not residents(E,B,'F').
+others(E,B,G) :- residents(E,B,G), not G = 'M', not G = 'F', not others(E,B,G).
-others(E,B,G) :- others(E,B,G), not residents(E,B,G).
`)
	res, err := Validate(pb, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Fatal("buggy residents mutant should be invalid")
	}
}

func TestPutRejectsConstraintViolation(t *testing.T) {
	pb := mustPutback(t, `
source r(a:int).
view v(a:int).
_|_ :- v(X), X > 9.
+r(X) :- v(X), not r(X).
-r(X) :- r(X), not v(X).
`)
	db := eval.NewDatabase()
	db.Set(datalog.Pred("r"), value.RelationOf(1, value.Tuple{value.Int(1)}))
	db.Set(datalog.Pred("v"), value.RelationOf(1, value.Tuple{value.Int(1)}, value.Tuple{value.Int(12)}))
	err := pb.Put(db)
	if _, ok := err.(*ConstraintError); !ok {
		t.Fatalf("want ConstraintError, got %v", err)
	}
	// Source must be untouched after rejection.
	if !db.Rel(datalog.Pred("r")).Equal(value.RelationOf(1, value.Tuple{value.Int(1)})) {
		t.Error("rejected update must not modify the source")
	}
}

func TestNewPutbackRejects(t *testing.T) {
	bad := []string{
		// no view
		"source r(a:int).\n+r(X) :- r(X).",
		// recursive
		"source r(a:int).\nview v(a:int).\na(X) :- b(X).\nb(X) :- a(X).\n+r(X) :- a(X).",
		// unsafe
		"source r(a:int).\nview v(a:int).\n+r(X) :- v(Y).",
	}
	for _, src := range bad {
		if _, err := NewPutback(mustProg(t, src)); err == nil {
			t.Errorf("NewPutback should reject:\n%s", src)
		}
	}
}

func TestComposePutGetSemantics(t *testing.T) {
	pb := mustPutback(t, unionSrc)
	get := mustRules(t, "v(X) :- r1(X).", "v(X) :- r2(X).")
	putget, err := ComposePutGet(pb.Prog, get)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eval.New(putget)
	if err != nil {
		t.Fatal(err)
	}
	getEv, err := eval.New(GetProgram(pb.Prog, get))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(31))
	randRel := func() *value.Relation {
		r := value.NewRelation(1)
		for i := 0; i < rng.Intn(5); i++ {
			r.Add(value.Tuple{value.Int(int64(rng.Intn(5)))})
		}
		return r
	}
	for trial := 0; trial < 80; trial++ {
		r1, r2, v := randRel(), randRel(), randRel()

		// Composed program: new_v over (S, V).
		db := eval.NewDatabase()
		db.Set(datalog.Pred("r1"), r1.Clone())
		db.Set(datalog.Pred("r2"), r2.Clone())
		db.Set(datalog.Pred("v"), v.Clone())
		if err := ev.Eval(db); err != nil {
			t.Fatal(err)
		}
		composed := db.RelOrEmpty(NewViewSym("v"), 1)

		// Direct computation: get(put(S, V)).
		db2 := eval.NewDatabase()
		db2.Set(datalog.Pred("r1"), r1.Clone())
		db2.Set(datalog.Pred("r2"), r2.Clone())
		db2.Set(datalog.Pred("v"), v.Clone())
		if err := pb.Put(db2); err != nil {
			t.Fatal(err)
		}
		direct, err := getEv.EvalQuery(db2, datalog.Pred("v"))
		if err != nil {
			t.Fatal(err)
		}
		if !composed.Equal(direct) {
			t.Fatalf("putget composition wrong:\ncomposed=%v\ndirect=%v\nr1=%v r2=%v v=%v",
				composed, direct, r1, r2, v)
		}
	}
}

func TestComposePutGetCollisionRejected(t *testing.T) {
	prog := mustProg(t, `
source r(a:int).
view v(a:int).
new_r(X) :- v(X).
+r(X) :- new_r(X), not r(X).
`)
	if _, err := ComposePutGet(prog, mustRules(t, "v(X) :- r(X).")); err == nil {
		t.Fatal("new_ name collision should be rejected")
	}
}

func TestValidateElapsedAndBounded(t *testing.T) {
	pb := mustPutback(t, unionSrc)
	res, err := Validate(pb, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed should be positive")
	}
	if !res.Bounded {
		t.Error("acceptance is always bounded with this oracle")
	}
}

// Theorem 2.1: a valid put determines get uniquely. Two different valid
// strategies for the same union view (one inserting into r1, one into r2)
// must therefore derive semantically identical view definitions.
func TestTheorem21UniquenessOfGet(t *testing.T) {
	intoR1 := mustPutback(t, unionSrc)
	intoR2 := mustPutback(t, `
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), not v(X).
+r2(X) :- v(X), not r1(X), not r2(X).
`)
	res1, err := Validate(intoR1, nil, testOptions())
	if err != nil || !res1.Valid {
		t.Fatalf("strategy 1: %v %v", err, res1.Failure)
	}
	res2, err := Validate(intoR2, nil, testOptions())
	if err != nil || !res2.Valid {
		t.Fatalf("strategy 2: %v %v", err, res2.Failure)
	}
	ev1, err := eval.New(GetProgram(intoR1.Prog, res1.Get))
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := eval.New(GetProgram(intoR2.Prog, res2.Get))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		db1, db2 := eval.NewDatabase(), eval.NewDatabase()
		for _, name := range []string{"r1", "r2"} {
			rel := value.NewRelation(1)
			for i := 0; i < rng.Intn(6); i++ {
				rel.Add(value.Tuple{value.Int(int64(rng.Intn(8)))})
			}
			db1.Set(datalog.Pred(name), rel.Clone())
			db2.Set(datalog.Pred(name), rel.Clone())
		}
		g1, err := ev1.EvalQuery(db1, datalog.Pred("v"))
		if err != nil {
			t.Fatal(err)
		}
		g2, err := ev2.EvalQuery(db2, datalog.Pred("v"))
		if err != nil {
			t.Fatal(err)
		}
		if !g1.Equal(g2) {
			t.Fatalf("derived gets differ (Theorem 2.1 violated): %v vs %v", g1, g2)
		}
	}
}

// outcomeCase is one program TestValidateOutcomes pins the verdict of.
type outcomeCase struct {
	name     string
	src      string
	expected []string // expected get rules, nil to derive
	valid    bool
	pass     Pass   // failing pass when invalid
	detail   string // Failure.Detail when invalid
	witness  string // Failure.Witness.String() when invalid
}

var outcomeCases = []outcomeCase{
	{
		name:     "union-valid",
		src:      unionSrc,
		expected: []string{"v(X) :- r1(X).", "v(X) :- r2(X)."},
		valid:    true,
	},
	{
		name:    "ill-defined",
		src:     illDefinedSrc,
		pass:    PassWellDefined,
		detail:  contradictoryDetail,
		witness: illDefinedWitness,
	},
	{
		name: "ill-defined-both-sources",
		src: `
source r1(a:int).
source r2(a:int).
view v(a:int).
+r1(X) :- v(X).
-r1(X) :- v(X), r2(X).
+r2(X) :- v(X).
-r2(X) :- v(X), r2(X).
`,
		pass:    PassWellDefined,
		detail:  "the program derives both +r1(t) and -r1(t) for the same tuple (contradictory ΔS)",
		witness: "r1 = {}\n+r1 = {(0)}\n-r1 = {(0)}\nr2 = {(0)}\n+r2 = {(0)}\n-r2 = {(0)}\nv = {(0)}\n",
	},
	{
		name: "ill-defined-second-source",
		src: `
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
+r1(X) :- v(X), not r1(X).
+r2(X) :- v(X).
-r2(X) :- v(X), r2(X).
`,
		pass:    PassWellDefined,
		detail:  "the program derives both +r2(t) and -r2(t) for the same tuple (contradictory ΔS)",
		witness: "r1 = {}\n+r1 = {(0)}\n-r1 = {}\nr2 = {(0)}\n+r2 = {(0)}\n-r2 = {(0)}\nv = {(0)}\n",
	},
	{
		name: "putget-violation",
		src: `
source r(a:int).
view v(a:int).
-r(X) :- r(X), v(X).
+r(X) :- v(X), not r(X).
`,
		pass:    PassPutGet,
		detail:  putGetDetail,
		witness: "new_r = {(0)}\nr = {}\n+r = {(0)}\n-r = {}\nv = {(0)}\n",
	},
	{
		name: "keyed-putget-violation",
		src: `
source r(k:int, a:int).
view v(k:int, a:int).
_|_ :- r(K, A), r(K, B), not A = B.
-r(K, A) :- r(K, A), v(K, A).
+r(K, A) :- v(K, A), not r(K, A).
`,
		pass:    PassPutGet,
		detail:  putGetDetail,
		witness: "new_r = {(0, 0)}\nr = {}\n+r = {(0, 0)}\n-r = {}\nv = {(0, 0)}\n",
	},
}

// TestValidateOutcomes pins the validator's verdict on six programs: a
// valid union strategy; three ill-defined ones, rejected by the
// well-definedness pass — one with a single source, and two with two
// sources under one search, where both sources are contradictory on the
// witness (the detail names the first) or only the second is; and two
// PutGet violations, one of them under a source key constraint, so that
// the oracle's constraint pruning is on the path of the rejection. Each
// rejection carries the detail and the witness instance pinned here: the
// oracle's search order is fixed, and pruning never changes which instance
// it finds first.
func TestValidateOutcomes(t *testing.T) {
	for _, tc := range outcomeCases {
		t.Run(tc.name, func(t *testing.T) {
			var expected []*datalog.Rule
			if tc.expected != nil {
				expected = mustRules(t, tc.expected...)
			}
			res, err := Validate(mustPutback(t, tc.src), expected, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			if res.Valid != tc.valid {
				t.Fatalf("Valid = %v, want %v (%v)", res.Valid, tc.valid, res.Failure)
			}
			if tc.valid {
				return
			}
			if res.Failure.Pass != tc.pass {
				t.Errorf("failing pass %q, want %q", res.Failure.Pass, tc.pass)
			}
			if res.Failure.Detail != tc.detail {
				t.Errorf("detail %q, want %q", res.Failure.Detail, tc.detail)
			}
			if res.Failure.Witness == nil {
				t.Fatal("rejection carries no witness instance")
			}
			if got := res.Failure.Witness.String(); got != tc.witness {
				t.Errorf("witness\n%s\nwant\n%s", got, tc.witness)
			}
		})
	}
}

const illDefinedSrc = `
source r(a:int).
view v(a:int).
+r(X) :- v(X).
-r(X) :- v(X), r(X).
`

const illDefinedWitness = "r = {(0)}\n+r = {(0)}\n-r = {(0)}\nv = {(0)}\n"

// TestValidateDeterministic runs the same validation twice and requires the
// same result each time: validity, failing pass, detail and the pinned
// witness instance.
func TestValidateDeterministic(t *testing.T) {
	for i := 0; i < 2; i++ {
		res, err := Validate(mustPutback(t, illDefinedSrc), nil, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Valid {
			t.Fatal("program must be rejected")
		}
		want := string(PassWellDefined) + ": " + contradictoryDetail + " / " + illDefinedWitness
		got := string(res.Failure.Pass) + ": " + res.Failure.Detail + " / " + res.Failure.Witness.String()
		if got != want {
			t.Fatalf("run %d:\n%s\nwant\n%s", i, got, want)
		}
	}
}

const contradictoryDetail = "the program derives both +r(t) and -r(t) for the same tuple (contradictory ΔS)"

const putGetDetail = "get(put(S, V)) ≠ V for some admissible (S, V) (PutGet violated)"
