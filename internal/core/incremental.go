package core

import (
	"fmt"

	"birds/internal/analysis"
	"birds/internal/datalog"
)

// IncrementalizeLVGN derives the incremental program ∂put from a valid
// LVGN-Datalog putback program by Lemma 5.2: in every delta rule, the
// positive view literal v(t) is replaced by +v(t) and the negated view
// literal ¬v(t) by the positive delta literal -v(t). Auxiliary rules are
// kept unchanged; integrity constraints are dropped (DeltaConstraintProgram
// checks them against the view delta separately).
//
// The resulting program reads the source relations, the view delta
// relations +v / -v, and — only through unchanged auxiliary rules — never
// the full view, so its cost is proportional to the view delta.
func IncrementalizeLVGN(prog *datalog.Program) (*datalog.Program, error) {
	if err := analysis.CheckLinearView(prog); err != nil {
		return nil, fmt.Errorf("core: Lemma 5.2 requires the linear-view restriction: %w", err)
	}
	view := prog.View.Name
	out := &datalog.Program{Sources: prog.Sources, View: prog.View}
	for _, r := range prog.Rules {
		if r.IsConstraint() {
			continue
		}
		nr := r.Clone()
		if nr.Head.Pred.IsDelta() {
			for i := range nr.Body {
				l := &nr.Body[i]
				if l.Atom == nil || l.Atom.Pred != datalog.Pred(view) {
					continue
				}
				if l.Neg {
					l.Neg = false
					l.Atom.Pred = datalog.Del(view)
				} else {
					l.Atom.Pred = datalog.Ins(view)
				}
			}
		}
		out.Rules = append(out.Rules, nr)
	}
	return out, nil
}

// DeltaConstraintProgram builds the program of the constraints with the
// positive view atom substituted by the insertion delta +v, so that
// admissibility of an update is checked against the inserted tuples only
// (deletions cannot introduce a violation of a linear-view constraint, and
// previously present tuples were checked by earlier transactions). Its
// constraints come first, in the order of prog's; the auxiliary rules they
// reach follow. The engine evaluates it beside ∂put, and sqlgen compiles
// its constraints into the incremental trigger.
func DeltaConstraintProgram(prog *datalog.Program) *datalog.Program {
	view := prog.View.Name
	p := &datalog.Program{Sources: prog.Sources, View: prog.View}
	needed := make(map[datalog.PredSym]bool)
	for _, r := range prog.Constraints() {
		nr := r.Clone()
		for i := range nr.Body {
			l := &nr.Body[i]
			if l.Atom == nil {
				continue
			}
			if !l.Neg && l.Atom.Pred == datalog.Pred(view) {
				l.Atom.Pred = datalog.Ins(view)
			} else {
				needed[l.Atom.Pred] = true
			}
		}
		p.Rules = append(p.Rules, nr)
	}
	// Pull in only the auxiliary rules the constraint bodies actually
	// reach; copying every auxiliary rule would re-materialize relations
	// over the full base tables on every update and destroy the O(ΔV)
	// bound the incremental mode exists for.
	for changed := true; changed; {
		changed = false
		for _, r := range prog.NonConstraintRules() {
			if r.Head.Pred.IsDelta() || !needed[r.Head.Pred] {
				continue
			}
			for _, l := range r.Body {
				if l.Atom != nil && !needed[l.Atom.Pred] {
					needed[l.Atom.Pred] = true
					changed = true
				}
			}
		}
	}
	for _, r := range prog.NonConstraintRules() {
		if !r.Head.Pred.IsDelta() && needed[r.Head.Pred] {
			p.Rules = append(p.Rules, r.Clone())
		}
	}
	return p
}

// Unfold inlines the positive non-delta IDB atoms of every delta rule,
// replacing each such atom by the bodies of its defining rules (standard
// resolution-based unfolding for nonrecursive Datalog). This lets the
// evaluator drive ∂put from the small delta relations instead of first
// materializing auxiliary relations over the full base tables — e.g. in
// Example 5.2 the intermediate m(X,Y) :- r(X,Y), Y > 2 is inlined into
// -r(X,Y) :- r(X,Y), Y > 2, -v(X,Y), which evaluates in O(|ΔV|).
//
// Negated IDB atoms are left in place (their defining rules are kept), and
// rules that are still referenced survive; everything unreferenced is
// pruned.
func Unfold(prog *datalog.Program) *datalog.Program {
	rulesFor := make(map[datalog.PredSym][]*datalog.Rule)
	for _, r := range prog.Rules {
		if !r.IsConstraint() {
			rulesFor[r.Head.Pred] = append(rulesFor[r.Head.Pred], r)
		}
	}
	fresh := 0
	freshVar := func() string {
		fresh++
		return fmt.Sprintf("U_%d", fresh)
	}

	// inlineOnce replaces the first positive inlinable IDB atom of the rule
	// by each of its definitions; it returns nil if nothing was inlined.
	var inlineOnce func(r *datalog.Rule) []*datalog.Rule
	inlineOnce = func(r *datalog.Rule) []*datalog.Rule {
		for i, l := range r.Body {
			if l.Neg || l.Atom == nil || l.Atom.Pred.IsDelta() {
				continue
			}
			defs := rulesFor[l.Atom.Pred]
			if len(defs) == 0 {
				continue
			}
			var out []*datalog.Rule
			for _, def := range defs {
				if inlined := resolve(r, i, def, freshVar); inlined != nil {
					out = append(out, inlined)
				}
			}
			return out
		}
		return nil
	}

	var result []*datalog.Rule
	work := append([]*datalog.Rule{}, prog.Rules...)
	for len(work) > 0 {
		r := work[0]
		work = work[1:]
		if r.IsConstraint() || !r.Head.Pred.IsDelta() {
			continue // handled below: only delta rules are unfolded
		}
		if expanded := inlineOnce(r); expanded != nil {
			work = append(expanded, work...)
			continue
		}
		result = append(result, r)
	}

	// Negated auxiliary atoms whose definition is a single rule over a
	// single positive atom rewrite to a direct negated atom: with
	// wo(E,O) :- works(E,O,_), the literal ¬wo(E,O) becomes ¬works(E,O,_).
	// Without this, an incrementalized program would re-materialize wo
	// over the full base table on every update.
	for _, r := range result {
		for i := range r.Body {
			l := &r.Body[i]
			if !l.Neg || l.Atom == nil || l.Atom.Pred.IsDelta() {
				continue
			}
			defs := rulesFor[l.Atom.Pred]
			if len(defs) != 1 {
				continue
			}
			if sub := negInline(l.Atom, defs[0]); sub != nil {
				l.Atom = sub
			}
		}
	}

	// Keep auxiliary rules still referenced (transitively) by negated atoms.
	needed := make(map[datalog.PredSym]bool)
	var markBody func(rules []*datalog.Rule)
	markBody = func(rules []*datalog.Rule) {
		for _, r := range rules {
			for _, l := range r.Body {
				if l.Atom == nil {
					continue
				}
				p := l.Atom.Pred
				if len(rulesFor[p]) > 0 && !needed[p] {
					needed[p] = true
					markBody(rulesFor[p])
				}
			}
		}
	}
	markBody(result)

	out := &datalog.Program{Sources: prog.Sources, View: prog.View}
	for _, r := range prog.Rules {
		if r.IsConstraint() {
			out.Rules = append(out.Rules, r.Clone())
			continue
		}
		if !r.Head.Pred.IsDelta() && needed[r.Head.Pred] {
			out.Rules = append(out.Rules, r.Clone())
		}
	}
	out.Rules = append(out.Rules, result...)
	return out
}

// negInline rewrites a negated call ¬q(t...) into a negated base atom when
// q is defined by exactly one rule whose body is a single positive atom,
// the head arguments are distinct variables, and every non-head body
// variable occurs just once (so it can become an anonymous variable).
// It returns nil when the definition does not have that shape.
func negInline(call *datalog.Atom, def *datalog.Rule) *datalog.Atom {
	if len(def.Body) != 1 {
		return nil
	}
	lit := def.Body[0]
	if lit.Neg || lit.Atom == nil {
		return nil
	}
	headPos := make(map[string]int)
	for i, t := range def.Head.Args {
		if !t.IsVar() {
			return nil
		}
		if _, dup := headPos[t.Var]; dup {
			return nil
		}
		headPos[t.Var] = i
	}
	seen := make(map[string]int)
	for _, t := range lit.Atom.Args {
		if t.IsVar() {
			seen[t.Var]++
		}
	}
	args := make([]datalog.Term, len(lit.Atom.Args))
	for i, t := range lit.Atom.Args {
		switch {
		case t.IsConst():
			args[i] = t
		case t.IsAnon():
			args[i] = datalog.Anon()
		default:
			if pos, isHead := headPos[t.Var]; isHead {
				args[i] = call.Args[pos]
			} else {
				if seen[t.Var] > 1 {
					return nil // a repeated existential is a join; keep the aux
				}
				args[i] = datalog.Anon()
			}
		}
	}
	return datalog.NewAtom(lit.Atom.Pred, args...)
}

// resolve inlines definition def into rule r at body position i, unifying
// the call arguments with the definition's head. It returns nil when the
// unification fails on conflicting constants (the combination derives
// nothing).
func resolve(r *datalog.Rule, i int, def *datalog.Rule, freshVar func() string) *datalog.Rule {
	call := r.Body[i].Atom

	// Rename the definition's variables apart from the caller's.
	rename := make(map[string]datalog.Term)
	renameTerm := func(t datalog.Term) datalog.Term {
		switch t.Kind {
		case datalog.TermVar:
			if nt, ok := rename[t.Var]; ok {
				return nt
			}
			nt := datalog.V(freshVar())
			rename[t.Var] = nt
			return nt
		case datalog.TermAnon:
			return datalog.V(freshVar())
		default:
			return t
		}
	}
	headArgs := make([]datalog.Term, len(def.Head.Args))
	for j, t := range def.Head.Args {
		headArgs[j] = renameTerm(t)
	}
	body := make([]datalog.Literal, 0, len(def.Body))
	for _, l := range def.Body {
		nl := l.Clone()
		if nl.Atom != nil {
			for j, t := range nl.Atom.Args {
				nl.Atom.Args[j] = renameTerm(t)
			}
		} else {
			nl.Builtin.L = renameTerm(nl.Builtin.L)
			nl.Builtin.R = renameTerm(nl.Builtin.R)
		}
		body = append(body, nl)
	}

	// Unify call args with renamed head args. The renamed head args are
	// fresh variables or constants; bind fresh variables to call terms.
	subst := make(map[string]datalog.Term)
	var extraEqs []datalog.Literal
	for j, ht := range headArgs {
		ct := call.Args[j]
		switch {
		case ht.IsVar():
			if prev, ok := subst[ht.Var]; ok {
				// Repeated head variable: equate the two call terms.
				if prev.IsConst() && ct.IsConst() {
					if !prev.Const.Equal(ct.Const) {
						return nil
					}
				} else if ct.IsAnon() || prev.IsAnon() {
					// Anonymous matches anything; no constraint.
				} else if !prev.Equal(ct) {
					extraEqs = append(extraEqs, datalog.Cmp(datalog.OpEq, prev, ct))
				}
			} else if ct.IsAnon() {
				subst[ht.Var] = datalog.V(freshVar())
			} else {
				subst[ht.Var] = ct
			}
		case ht.IsConst():
			switch {
			case ct.IsConst():
				if !ht.Const.Equal(ct.Const) {
					return nil
				}
			case ct.IsAnon():
				// Matches trivially.
			default: // variable in the call: bind it via equality
				extraEqs = append(extraEqs, datalog.Cmp(datalog.OpEq, ct, ht))
			}
		}
	}
	applySubst := func(t datalog.Term) datalog.Term {
		if t.IsVar() {
			if nt, ok := subst[t.Var]; ok {
				return nt
			}
		}
		return t
	}
	for bi := range body {
		l := &body[bi]
		if l.Atom != nil {
			for j, t := range l.Atom.Args {
				l.Atom.Args[j] = applySubst(t)
			}
		} else {
			l.Builtin.L = applySubst(l.Builtin.L)
			l.Builtin.R = applySubst(l.Builtin.R)
		}
	}

	out := &datalog.Rule{Head: r.Head.Clone()}
	for j, l := range r.Body {
		if j == i {
			out.Body = append(out.Body, body...)
			out.Body = append(out.Body, extraEqs...)
			continue
		}
		out.Body = append(out.Body, l.Clone())
	}
	return out
}

// Incrementalize derives the optimized incremental program for a validated
// putback program: the Lemma 5.2 substitution, delta-rule unfolding, and a
// final simplification pass (duplicate and ground-literal elimination,
// constant propagation). The result reads sources, +v and -v.
func Incrementalize(prog *datalog.Program) (*datalog.Program, error) {
	inc, err := IncrementalizeLVGN(prog)
	if err != nil {
		return nil, err
	}
	return datalog.Simplify(Unfold(inc)), nil
}
