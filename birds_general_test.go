package birds_test

import (
	"strings"
	"testing"

	"birds"
)

func TestPublicAPIGeneralIncrementalization(t *testing.T) {
	// A join view outside LVGN: Lemma 5.2 must refuse, the general
	// Appendix C pipeline must work.
	s, err := birds.Load(`
source a(x:int, q:int).
source b(t:int, x:int).
view j(t:int, x:int, q:int).
_|_ :- a(X,Q1), a(X,Q2), not Q1 = Q2.
_|_ :- b(T,X), not a(X,_).
_|_ :- j(T1,X,Q1), j(T2,X,Q2), not Q1 = Q2.
vb(T,X) :- j(T,X,_).
va(X) :- j(_,X,_).
aq(X,Q) :- j(_,X,Q).
+b(T,X) :- j(T,X,Q), not b(T,X).
-b(T,X) :- b(T,X), not vb(T,X).
+a(X,Q) :- aq(X,Q), not a(X,Q).
-a(X,Q) :- a(X,Q), va(X), not aq(X,Q).
`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class().LVGN() {
		t.Fatal("join view should be outside LVGN")
	}
	if _, err := s.Incrementalize(); err == nil {
		t.Error("Lemma 5.2 must refuse a non-linear-view program")
	}
	gi, err := s.IncrementalizeGeneral()
	if err != nil {
		t.Fatal(err)
	}
	text := gi.DefinitionProgram().String()
	for _, h := range []string{"+a(", "-a(", "+b(", "-b("} {
		if !strings.Contains(text, h) {
			t.Errorf("binarized program does not define %s...):\n%s", h, text)
		}
	}
}

func TestPublicAPIBinarize(t *testing.T) {
	prog, err := birds.Parse(`
source r(a:int, b:int).
source s(b:int, c:int).
source u(c:int, d:int).
view v(a:int).
wide(A,D) :- r(A,B), s(B,C), u(C,D), not r(D,A), A > 0.
`)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := birds.Binarize(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range bin.Rules {
		atoms := 0
		for _, l := range r.Body {
			if l.Atom != nil {
				atoms++
			}
		}
		if atoms > 2 {
			t.Errorf("binarized rule %q has %d relation atoms", r, atoms)
		}
	}
}

func TestPublicAPIExecSQL(t *testing.T) {
	db := birds.NewDB()
	decls, err := birds.Parse("source r1(a:int).\nsource r2(a:int).\nview x(a:int).")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls.Sources {
		if err := db.CreateTable(d); err != nil {
			t.Fatal(err)
		}
	}
	get, err := birds.ParseRules("v(X) :- r1(X).\nv(X) :- r2(X).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView(unionSrc, birds.ViewOptions{
		Incremental: true, SkipValidation: true, ExpectedGet: get,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecSQL(`
BEGIN;
INSERT INTO v VALUES (10), (20);
DELETE FROM v WHERE a = 10;
END;
`); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get("v")
	if err != nil {
		t.Fatal(err)
	}
	if v.Contains(birds.Tuple{birds.Int(10)}) || !v.Contains(birds.Tuple{birds.Int(20)}) {
		t.Errorf("v = %v", v)
	}
	r1, _ := db.Get("r1")
	if !r1.Contains(birds.Tuple{birds.Int(20)}) {
		t.Errorf("r1 = %v", r1)
	}
}
