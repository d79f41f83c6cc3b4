package eval

import (
	"strings"
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

func TestExplainShowsDeltaDrivenPlan(t *testing.T) {
	// An incrementalized-style rule over a populated base and an empty
	// delta: the delta relation must be the outer loop, and the base
	// relation, every position of which the delta binds, tested by
	// membership rather than probed through a table or index.
	e := mustEval(t, `
source r(a:int, b:int).
view v(a:int, b:int).
_|_ :- v(X,Y), X > 100.
-r(X,Y) :- r(X,Y), Y > 2, -v(X,Y).
`)
	db := NewDatabase()
	r := value.NewRelation(2)
	for i := 0; i < 5; i++ {
		r.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i))})
	}
	db.Set(datalog.Pred("r"), r)
	out := e.Explain(db)
	for _, want := range []string{
		"rule -r(X, Y)",
		"1. scan -v (full)",
		"semi-join r by direct membership",
		"filter >",
		"rule _|_",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// The delta scan must come before the base-relation probe.
	if strings.Index(out, "scan -v") > strings.Index(out, "semi-join r") {
		t.Errorf("delta relation should drive the plan:\n%s", out)
	}
	assertReleased(t, e, "after Explain")
}

func TestExplainMembershipAntiJoin(t *testing.T) {
	e := mustEval(t, `
source r(a:int).
view v(a:int).
+r(X) :- v(X), not r(X).
d(X) :- v(X), not r(_).
`)
	out := e.Explain(NewDatabase())
	if !strings.Contains(out, "anti-join r by direct membership") {
		t.Errorf("full-key negation should test membership:\n%s", out)
	}
	if !strings.Contains(out, "anti-join r via ephemeral table on positions []") {
		t.Errorf("projected negation should probe an ephemeral table:\n%s", out)
	}
}

func TestExplainMembershipSemiJoin(t *testing.T) {
	// Once r(X,Y) has bound X and Y, every position of s(X,Y) and of
	// c(1,X) is bound: membership tests, no index. t(Y,_) and u(X,Z) bind
	// only part of theirs: probes through the maintained indexes db has on
	// exactly those positions, which make the one-tuple r the cheapest
	// driver of both rules.
	e := mustEval(t, `
source r(a:int, b:int).
source s(a:int, b:int).
source t(a:int, b:int).
source u(a:int, b:int).
source c(a:int, b:int).
view v(a:int).
h(X) :- r(X,Y), s(X,Y), t(Y,_), c(1,X).
k(X,Z) :- r(X,X), u(X,Z).
`)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), value.RelationOf(2, value.Tuple{value.Int(1), value.Int(1)}))
	for _, name := range []string{"s", "t", "u", "c"} {
		rel := value.NewRelation(2)
		for i := 0; i < 5; i++ {
			rel.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i))})
		}
		db.Set(datalog.Pred(name), rel)
	}
	db.Index(datalog.Pred("t"), []int{0})
	db.Index(datalog.Pred("u"), []int{0})
	out := e.Explain(db)
	for _, want := range []string{
		"semi-join s by direct membership",
		"semi-join c by direct membership",
		"probe t via maintained index on positions [0]",
		"probe u via maintained index on positions [0]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "on positions [0 1]") {
		t.Errorf("a fully bound atom must not be probed through a table or index:\n%s", out)
	}
}

func TestExplainEqualityBinding(t *testing.T) {
	e := mustEval(t, `
source r(a:int, b:string).
view v(a:int).
+r(X,Y) :- v(X), Y = 'unknown', not r(X,Y).
`)
	out := e.Explain(NewDatabase())
	if !strings.Contains(out, "bind via equality") {
		t.Errorf("equality binding not reported:\n%s", out)
	}
}
