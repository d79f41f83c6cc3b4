package eval

import (
	"strings"
	"testing"
)

func TestExplainShowsDeltaDrivenPlan(t *testing.T) {
	// An incrementalized-style rule: the small delta relation must be the
	// outer loop, the base relation, every position of which the delta
	// binds, tested by membership rather than probed through an index.
	e := mustEval(t, `
source r(a:int, b:int).
view v(a:int, b:int).
_|_ :- v(X,Y), X > 100.
-r(X,Y) :- r(X,Y), Y > 2, -v(X,Y).
`)
	out := e.Explain()
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
}

func TestExplainMembershipAntiJoin(t *testing.T) {
	e := mustEval(t, `
source r(a:int).
view v(a:int).
+r(X) :- v(X), not r(X).
d(X) :- v(X), not r(_).
`)
	out := e.Explain()
	if !strings.Contains(out, "anti-join r by direct membership") {
		t.Errorf("full-key negation should test membership:\n%s", out)
	}
	if !strings.Contains(out, "anti-join r via index on positions []") &&
		!strings.Contains(out, "anti-join r via index") {
		t.Errorf("projected negation should use an index:\n%s", out)
	}
}

func TestExplainMembershipSemiJoin(t *testing.T) {
	// Once r(X,Y) has bound X and Y, every position of s(X,Y) and of
	// c(1,X) is bound: membership tests, no index. t(Y,_) and u(X,Z) bind
	// only part of theirs: probes via an index.
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
	out := e.Explain()
	for _, want := range []string{
		"semi-join s by direct membership",
		"semi-join c by direct membership",
		"probe t via index on positions [0]",
		"probe u via index on positions [0]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "index on positions [0 1]") {
		t.Errorf("a fully bound atom must not be probed through an index:\n%s", out)
	}
}

func TestExplainEqualityBinding(t *testing.T) {
	e := mustEval(t, `
source r(a:int, b:string).
view v(a:int).
+r(X,Y) :- v(X), Y = 'unknown', not r(X,Y).
`)
	out := e.Explain()
	if !strings.Contains(out, "bind via equality") {
		t.Errorf("equality binding not reported:\n%s", out)
	}
}
