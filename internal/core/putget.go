package core

import (
	"fmt"

	"birds/internal/datalog"
)

// NewSourceSym returns the predicate for the post-update state of a source
// relation (the r_new of §4.4).
func NewSourceSym(name string) datalog.PredSym { return datalog.Pred("new_" + name) }

// NewViewSym returns the predicate for the recomputed view over the updated
// sources (the v_new of §4.4).
func NewViewSym(view string) datalog.PredSym { return datalog.Pred("new_" + view) }

// ComposePutGet builds the putget program of §4.4: the putback program
// (constraints excluded) followed by its PutGetCone, so that new_v computes
// get(put(S, V)) over the database (S, V).
func ComposePutGet(putdelta *datalog.Program, getRules []*datalog.Rule) (*datalog.Program, error) {
	cone, err := PutGetCone(putdelta, getRules)
	if err != nil {
		return nil, err
	}
	return withPutback(putdelta, cone), nil
}

// withPutback returns the putget program whose PutGetCone is cone.
func withPutback(putdelta, cone *datalog.Program) *datalog.Program {
	out := &datalog.Program{Sources: putdelta.Sources, View: putdelta.View}
	for _, r := range putdelta.Rules {
		if !r.IsConstraint() {
			out.Rules = append(out.Rules, r.Clone())
		}
	}
	out.Rules = append(out.Rules, cone.Rules...)
	return out
}

// PutGetCone returns the rules the putget program adds to the putback
// program: for each source ri the updated-source rules
//
//	new_ri(X) :- ri(X), not -ri(X).
//	new_ri(X) :- +ri(X).
//
// and the get rules rewritten over the updated sources. In the cone the
// delta relations ±ri and the putback program's auxiliary relations are
// EDB: evaluated over a database on which the putback program has already
// derived ΔS, it computes the same new_* relations as the whole putget
// program, without deriving ΔS again. Constraints are left out; they
// restrict admissible updates and are checked separately.
func PutGetCone(putdelta *datalog.Program, getRules []*datalog.Rule) (*datalog.Program, error) {
	newGet, err := renamedGet(putdelta, getRules)
	if err != nil {
		return nil, err
	}
	return coneOf(putdelta, newGet), nil
}

// coneOf returns the PutGetCone whose renamed get rules are newGet.
func coneOf(putdelta *datalog.Program, newGet []*datalog.Rule) *datalog.Program {
	out := &datalog.Program{Sources: putdelta.Sources, View: putdelta.View}
	for _, s := range putdelta.Sources {
		args := make([]datalog.Term, s.Arity())
		for i := range args {
			args[i] = datalog.V(fmt.Sprintf("X%d", i+1))
		}
		head := datalog.NewAtom(NewSourceSym(s.Name), args...)
		out.Rules = append(out.Rules,
			datalog.NewRule(head.Clone(),
				datalog.Pos(datalog.NewAtom(datalog.Pred(s.Name), args...)),
				datalog.Negated(datalog.NewAtom(datalog.Del(s.Name), args...))),
			datalog.NewRule(head.Clone(),
				datalog.Pos(datalog.NewAtom(datalog.Ins(s.Name), args...))),
		)
	}
	out.Rules = append(out.Rules, newGet...)
	return out
}

// renamedGet returns the get rules over the updated sources: the view
// head and every source or auxiliary predicate move into the new_
// namespace; builtin literals and constants pass through. A renamed
// predicate, new_ri included, must not collide with one of putdelta's.
func renamedGet(putdelta *datalog.Program, getRules []*datalog.Rule) ([]*datalog.Rule, error) {
	used := make(map[string]bool)
	for _, r := range putdelta.Rules {
		if !r.IsConstraint() {
			used[r.Head.Pred.Name] = true
		}
	}
	renames := make(map[string]string)
	renames[putdelta.View.Name] = NewViewSym(putdelta.View.Name).Name
	for _, s := range putdelta.Sources {
		renames[s.Name] = NewSourceSym(s.Name).Name
	}
	for _, r := range getRules {
		if r.IsConstraint() {
			return nil, fmt.Errorf("core: get program must not contain constraints")
		}
		if _, ok := renames[r.Head.Pred.Name]; !ok {
			renames[r.Head.Pred.Name] = "new_" + r.Head.Pred.Name
		}
	}
	for _, renamed := range renames {
		if used[renamed] {
			return nil, fmt.Errorf("core: predicate name %s collides with a program predicate", renamed)
		}
	}
	renameAtom := func(a *datalog.Atom) *datalog.Atom {
		c := a.Clone()
		if n, ok := renames[c.Pred.Name]; ok {
			c.Pred = datalog.PredSym{Name: n, Delta: c.Pred.Delta}
		}
		return c
	}
	var out []*datalog.Rule
	for _, r := range getRules {
		if r.Head.Pred.IsDelta() {
			return nil, fmt.Errorf("core: get rule %q must not define a delta relation", r)
		}
		nr := &datalog.Rule{Head: renameAtom(r.Head)}
		for _, l := range r.Body {
			nl := l.Clone()
			if nl.Atom != nil {
				nl.Atom = renameAtom(nl.Atom)
			}
			nr.Body = append(nr.Body, nl)
		}
		out = append(out, nr)
	}
	return out, nil
}
