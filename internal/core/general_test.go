package core

import (
	"math/rand"
	"testing"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// Binarization must preserve the semantics of every original IDB relation
// (Lemma C.1).
func TestBinarizePreservesSemantics(t *testing.T) {
	src := `
source r(a:int, b:int).
source s(b:int, c:int).
view v(a:int, c:int).
j(X,Y,Z) :- r(X,Y), s(Y,Z), Z > 1.
p(X) :- j(X,_,_).
q(X) :- r(X,Y), not s(Y,_), Y > 0.
u(X) :- p(X).
u(X) :- q(X).
u(X) :- v(X,_).
`
	prog := mustProg(t, src)
	bin, err := Binarize(prog)
	if err != nil {
		t.Fatal(err)
	}
	evOrig, err := eval.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	evBin, err := eval.New(bin)
	if err != nil {
		t.Fatalf("binarized program does not compile: %v\n%s", err, bin)
	}
	// Every binarized rule must have at most 2 relation atoms in its body.
	for _, r := range bin.Rules {
		atoms := 0
		for _, l := range r.Body {
			if l.Atom != nil {
				atoms++
			}
		}
		if atoms > 2 {
			t.Errorf("rule %q has %d atoms", r, atoms)
		}
	}

	rng := rand.New(rand.NewSource(3))
	goals := []datalog.PredSym{datalog.Pred("j"), datalog.Pred("p"), datalog.Pred("q"), datalog.Pred("u")}
	for trial := 0; trial < 100; trial++ {
		db1, db2 := eval.NewDatabase(), eval.NewDatabase()
		for _, spec := range []struct {
			name  string
			arity int
		}{{"r", 2}, {"s", 2}, {"v", 2}} {
			rel := value.NewRelation(spec.arity)
			for i := 0; i < rng.Intn(5); i++ {
				tu := make(value.Tuple, spec.arity)
				for j := range tu {
					tu[j] = value.Int(int64(rng.Intn(4)))
				}
				rel.Add(tu)
			}
			db1.Set(datalog.Pred(spec.name), rel.Clone())
			db2.Set(datalog.Pred(spec.name), rel.Clone())
		}
		if err := evOrig.Eval(db1); err != nil {
			t.Fatal(err)
		}
		if err := evBin.Eval(db2); err != nil {
			t.Fatal(err)
		}
		for _, g := range goals {
			a := db1.RelOrEmpty(g, 1)
			b := db2.RelOrEmpty(g, 1)
			if g == datalog.Pred("j") {
				a = db1.RelOrEmpty(g, 3)
				b = db2.RelOrEmpty(g, 3)
			}
			if !a.Equal(b) {
				t.Fatalf("trial %d: %s differs: orig=%v bin=%v\n%s", trial, g, a, b, bin)
			}
		}
	}
}

// generalEquivalenceTrial checks that the general incremental pipeline
// computes the same updated sources and view as full putback evaluation,
// across a sequence of random view deltas (so materialized intermediates
// must stay consistent from update to update).
func generalEquivalenceTrial(t *testing.T, src, getSrc string, domain int, seed int64) {
	t.Helper()
	prog := mustProg(t, src)
	pb, err := NewPutback(prog)
	if err != nil {
		t.Fatal(err)
	}
	var getRules []*datalog.Rule
	for _, line := range splitLines(getSrc) {
		r, err := datalog.ParseRule(line)
		if err != nil {
			t.Fatal(err)
		}
		getRules = append(getRules, r)
	}
	getEv, err := eval.New(GetProgram(prog, getRules))
	if err != nil {
		t.Fatal(err)
	}
	gi, err := NewGeneralIncremental(prog)
	if err != nil {
		t.Fatal(err)
	}

	viewSym := datalog.Pred(prog.View.Name)
	arity := prog.View.Arity()
	rng := rand.New(rand.NewSource(seed))
	randTuple := func(n int) value.Tuple {
		tu := make(value.Tuple, n)
		for i := range tu {
			tu[i] = value.Int(int64(rng.Intn(domain)))
		}
		return tu
	}

	for trial := 0; trial < 30; trial++ {
		// Random initial sources; view = get(S) so the system starts in a
		// steady state.
		srcRels := make(map[string]*value.Relation)
		for _, s := range prog.Sources {
			rel := value.NewRelation(s.Arity())
			for i := 0; i < rng.Intn(6); i++ {
				rel.Add(randTuple(s.Arity()))
			}
			srcRels[s.Name] = rel
		}
		base := eval.NewDatabase()
		for name, rel := range srcRels {
			base.Set(datalog.Pred(name), rel.Clone())
		}
		view, err := getEv.EvalQuery(base, viewSym)
		if err != nil {
			t.Fatal(err)
		}
		view = view.Clone()

		incDB := eval.NewDatabase()
		for name, rel := range srcRels {
			incDB.Set(datalog.Pred(name), rel.Clone())
		}
		incDB.Set(viewSym, view.Clone())
		if err := gi.Init(incDB); err != nil {
			t.Fatal(err)
		}

		refSources := srcRels
		refView := view
		// A chain of updates against the same incremental state.
		for step := 0; step < 4; step++ {
			insV := value.NewRelation(arity)
			delV := value.NewRelation(arity)
			for i := 0; i < rng.Intn(3); i++ {
				tu := randTuple(arity)
				if !refView.Contains(tu) {
					insV.Add(tu)
				}
			}
			for _, tu := range refView.Tuples() {
				if rng.Intn(4) == 0 {
					delV.Add(tu)
				}
			}
			newView := refView.Clone()
			newView.SubtractAll(delV)
			newView.UnionWith(insV)

			// Reference: full putdelta over (S, V').
			full := eval.NewDatabase()
			for name, rel := range refSources {
				full.Set(datalog.Pred(name), rel.Clone())
			}
			full.Set(viewSym, newView.Clone())
			if err := pb.eval.Eval(full); err != nil {
				t.Fatal(err)
			}
			if violated, _ := pb.eval.Violations(full); len(violated) > 0 {
				break // inadmissible; stop this chain
			}
			if _, _, err := eval.ApplyDeltas(full, prog.Sources); err != nil {
				t.Fatal(err)
			}

			// Incremental path.
			if err := gi.Apply(incDB, insV.Clone(), delV.Clone()); err != nil {
				t.Fatal(err)
			}

			for _, s := range prog.Sources {
				got := incDB.RelOrEmpty(datalog.Pred(s.Name), s.Arity())
				want := full.RelOrEmpty(datalog.Pred(s.Name), s.Arity())
				if !got.Equal(want) {
					t.Fatalf("trial %d step %d: %s diverged:\nfull=%v\ninc=%v\nΔ+=%v Δ-=%v\nbinarized program:\n%s",
						trial, step, s.Name, want, got, insV, delV, gi.DefinitionProgram())
				}
			}
			// Advance the reference state.
			refSources = make(map[string]*value.Relation)
			for _, s := range prog.Sources {
				refSources[s.Name] = full.RelOrEmpty(datalog.Pred(s.Name), s.Arity()).Clone()
			}
			refView = newView
			// Keep the incremental view in sync semantically.
			gotView := incDB.RelOrEmpty(viewSym, arity)
			if !gotView.Equal(newView) {
				t.Fatalf("trial %d step %d: view diverged: %v vs %v", trial, step, gotView, newView)
			}
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			line := s[start:i]
			start = i + 1
			trimmed := ""
			for _, c := range line {
				if c != ' ' && c != '\t' {
					trimmed = line
					break
				}
			}
			if trimmed != "" {
				out = append(out, line)
			}
		}
	}
	return out
}

func TestGeneralIncrementalUnion(t *testing.T) {
	generalEquivalenceTrial(t, unionSrc, "v(X) :- r1(X).\nv(X) :- r2(X).", 6, 5)
}

func TestGeneralIncrementalSelectionWithAux(t *testing.T) {
	generalEquivalenceTrial(t, selectionSrc, "v(X,Y) :- r(X,Y), Y > 2.", 5, 7)
}

func TestGeneralIncrementalDifference(t *testing.T) {
	generalEquivalenceTrial(t, `
source ed(e:int, d:int).
source eed(e:int, d:int).
view ced(e:int, d:int).
+ed(E,D) :- ced(E,D), not ed(E,D).
-eed(E,D) :- ced(E,D), eed(E,D).
+eed(E,D) :- ed(E,D), not ced(E,D), not eed(E,D).
`, "ced(E,D) :- ed(E,D), not eed(E,D).", 4, 11)
}

// The join view (outside LVGN-Datalog, where Lemma 5.2 does not apply) is
// the case the general algorithm exists for.
func TestGeneralIncrementalJoinView(t *testing.T) {
	generalEquivalenceTrial(t, `
source albums(album:int, quantity:int).
source tracks(tid:int, album:int).
view tr(tid:int, album:int, quantity:int).
_|_ :- albums(A,Q1), albums(A,Q2), not Q1 = Q2.
_|_ :- tracks(T,A), not albums(A,_).
_|_ :- tr(T1,A,Q1), tr(T2,A,Q2), not Q1 = Q2.
vtracks(T,A) :- tr(T,A,_).
valbums(A) :- tr(_,A,_).
albq(A,Q) :- tr(_,A,Q).
+tracks(T,A) :- tr(T,A,Q), not tracks(T,A).
-tracks(T,A) :- tracks(T,A), not vtracks(T,A).
+albums(A,Q) :- albq(A,Q), not albums(A,Q).
-albums(A,Q) :- albums(A,Q), valbums(A), not albq(A,Q).
`, "tr(T,A,Q) :- tracks(T,A), albums(A,Q).", 3, 13)
}

func TestGeneralIncrementalSemijoinAnon(t *testing.T) {
	generalEquivalenceTrial(t, `
source tasks(tid:int, uid:int, done:int).
source users(uid:int).
view ot(tid:int, uid:int).
_|_ :- ot(T,U), not users(U).
t0(T,U) :- tasks(T,U,0).
+tasks(T,U,D) :- ot(T,U), not t0(T,U), D = 0.
-tasks(T,U,D) :- tasks(T,U,D), D = 0, users(U), not ot(T,U).
`, "ot(T,U) :- tasks(T,U,0), users(U).", 3, 17)
}

func TestGeneralIncrementalProgramShapes(t *testing.T) {
	prog := mustProg(t, selectionSrc)
	gi, err := NewGeneralIncremental(prog)
	if err != nil {
		t.Fatal(err)
	}
	// The maintained program is the binarized one: at most two relation
	// atoms per rule, and every delta relation of the strategy defined.
	defined := make(map[datalog.PredSym]bool)
	for _, r := range gi.DefinitionProgram().Rules {
		atoms := 0
		for _, l := range r.Body {
			if l.Atom != nil {
				atoms++
			}
		}
		if atoms > 2 {
			t.Errorf("binarized rule %q has %d relation atoms", r, atoms)
		}
		defined[r.Head.Pred] = true
	}
	for p := range prog.IDBPreds() {
		if p.IsDelta() && !defined[p] {
			t.Errorf("delta relation %s not defined:\n%s", p, gi.DefinitionProgram())
		}
	}
}

func TestBinarizeErrors(t *testing.T) {
	// A rule with no positive atom cannot be binarized.
	prog := &datalog.Program{
		Sources: mustProg(t, "source r(a:int).\nview v(a:int).").Sources,
		View:    mustProg(t, "source r(a:int).\nview v(a:int).").View,
		Rules: []*datalog.Rule{
			datalog.NewRule(datalog.NewAtom(datalog.Pred("h"), datalog.CInt(1))),
		},
	}
	if _, err := Binarize(prog); err == nil {
		t.Fatal("fact-only rule should fail binarization")
	}
}
