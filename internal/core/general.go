package core

import (
	"fmt"
	"sort"

	"birds/internal/analysis"
	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// This file implements the general incrementalization of Section 5 /
// Appendix C of the paper, which — unlike the Lemma 5.2 shortcut — applies
// to any NR-Datalog¬ putback program, including the join views outside
// LVGN-Datalog. The program is binarized (Lemma C.1) so that every IDB
// relation is defined from at most two other relations, and the binarized
// program is maintained by counted IVM: a view delta propagates through
// the intermediates to the ±ri delta relations, which then hold the new
// source deltas (Proposition 5.1).
//
// Built-in predicates ride along as unchanged relations, as the paper
// notes. Synthesized predicate names start with "__", which the surface
// syntax cannot produce, so they can never collide with user predicates.

func cloneLits(ls []datalog.Literal) []datalog.Literal {
	out := make([]datalog.Literal, len(ls))
	for i, l := range ls {
		out[i] = l.Clone()
	}
	return out
}

// binarizer rewrites a program into rules with at most two relation atoms
// each (Lemma C.1).
type binarizer struct {
	prog  *datalog.Program
	rules []*datalog.Rule
	nAux  int
	fresh int
}

// emit appends the rule head :- body, sharing no atom with later rules.
func (b *binarizer) emit(head *datalog.Atom, body ...datalog.Literal) {
	b.rules = append(b.rules, datalog.NewRule(head.Clone(), cloneLits(body)...))
}

func (b *binarizer) auxSym() datalog.PredSym {
	b.nAux++
	return datalog.Pred(fmt.Sprintf("__b%d", b.nAux))
}

func (b *binarizer) freshVar() string {
	b.fresh++
	return fmt.Sprintf("BV%d", b.fresh)
}

// atomOf builds an atom with the given variables in sorted order.
func atomOf(p datalog.PredSym, vars []string) *datalog.Atom {
	args := make([]datalog.Term, len(vars))
	for i, v := range vars {
		args[i] = datalog.V(v)
	}
	return datalog.NewAtom(p, args...)
}

func sortedVars(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// binarizeRule decomposes one rule into a chain of rules whose last one
// defines head (the rule's head pred when single-rule, otherwise an aux).
func (b *binarizer) binarizeRule(r *datalog.Rule, head *datalog.Atom) error {
	// Normalize: positive-atom anonymous variables become fresh variables.
	var positives []*datalog.Atom
	var negAtoms []*datalog.Atom
	var builtins []datalog.Literal
	for _, l := range r.Body {
		switch {
		case l.Builtin != nil:
			nl := l.Clone()
			if nl.Neg {
				nl.Neg = false
				nl.Builtin.Op = nl.Builtin.Op.Negate()
			}
			builtins = append(builtins, nl)
		case l.Neg:
			negAtoms = append(negAtoms, l.Atom.Clone())
		default:
			a := l.Atom.Clone()
			for i, t := range a.Args {
				if t.IsAnon() {
					a.Args[i] = datalog.V(b.freshVar())
				}
			}
			positives = append(positives, a)
		}
	}
	if len(positives) == 0 {
		return fmt.Errorf("core: cannot binarize rule %q: no positive atom", r)
	}

	// Track the variables bound so far and the builtins not yet attached.
	bound := make(map[string]bool)
	addVars := func(a *datalog.Atom) {
		for _, v := range a.Vars() {
			bound[v] = true
		}
	}
	// Equalities with constants bind variables for builtin attachment.
	constEq := make(map[string]bool)
	for _, bl := range builtins {
		if bl.Builtin.Op == datalog.OpEq {
			if bl.Builtin.L.IsVar() && bl.Builtin.R.IsConst() {
				constEq[bl.Builtin.L.Var] = true
			}
			if bl.Builtin.R.IsVar() && bl.Builtin.L.IsConst() {
				constEq[bl.Builtin.R.Var] = true
			}
		}
	}
	pending := append([]datalog.Literal{}, builtins...)
	takeReady := func() []datalog.Literal {
		var ready, rest []datalog.Literal
		for _, bl := range pending {
			ok := true
			for _, v := range bl.Vars() {
				if !bound[v] && !constEq[v] {
					ok = false
					break
				}
			}
			// A variable bound only through a constant equality is
			// introduced by the equality itself; treat it as bound once
			// the equality is attached.
			if ok {
				for _, v := range bl.Vars() {
					bound[v] = true
				}
				ready = append(ready, bl)
			} else {
				rest = append(rest, bl)
			}
		}
		pending = rest
		return ready
	}

	// Join chain over the positive atoms.
	cur := positives[0]
	addVars(cur)
	curBuiltins := takeReady()
	if len(positives) == 1 && len(curBuiltins) > 0 {
		// Unary selection step.
		h := atomOf(b.auxSym(), sortedVars(bound))
		b.emit(h, append([]datalog.Literal{datalog.Pos(cur)}, curBuiltins...)...)
		cur = h
		curBuiltins = nil
	}
	// With several positive atoms, builtins over the first atom alone fold
	// into the first join step.
	for i := 1; i < len(positives); i++ {
		next := positives[i]
		addVars(next)
		bs := append(curBuiltins, takeReady()...)
		curBuiltins = nil
		h := atomOf(b.auxSym(), sortedVars(bound))
		b.emit(h, append([]datalog.Literal{datalog.Pos(cur), datalog.Pos(next)}, bs...)...)
		cur = h
	}
	if rest := takeReady(); len(rest) > 0 || len(curBuiltins) > 0 {
		bs := append(curBuiltins, rest...)
		h := atomOf(b.auxSym(), sortedVars(bound))
		b.emit(h, append([]datalog.Literal{datalog.Pos(cur)}, bs...)...)
		cur = h
	}
	if len(pending) > 0 {
		return fmt.Errorf("core: cannot binarize rule %q: builtin %s has unbound variables", r, pending[0])
	}

	// Negation chain.
	for _, na := range negAtoms {
		h := atomOf(b.auxSym(), cur.Vars())
		b.emit(h, datalog.Pos(cur), datalog.Negated(na))
		cur = h
	}

	// Final projection/decoration onto the rule head.
	b.emit(head, datalog.Pos(cur))
	return nil
}

// binarize rewrites every IDB predicate of the program.
func (b *binarizer) binarize() error {
	order, err := analysis.Stratify(b.prog)
	if err != nil {
		return err
	}
	for _, sym := range order {
		rules := b.prog.RulesFor(sym)
		if len(rules) == 1 {
			if err := b.binarizeRule(rules[0], rules[0].Head); err != nil {
				return err
			}
			continue
		}
		// Multiple rules: binarize each into an aux top (keeping the
		// rule's own head terms, so constants and repeats decorate the
		// aux relation), then fold a union tree over canonical variables.
		var tops []*datalog.Atom
		unionVars := make([]string, rules[0].Head.Arity())
		for i := range unionVars {
			unionVars[i] = fmt.Sprintf("UV%d", i+1)
		}
		for _, r := range rules {
			aux := b.auxSym()
			defHead := datalog.NewAtom(aux, append([]datalog.Term{}, r.Head.Args...)...)
			if err := b.binarizeRule(r, defHead); err != nil {
				return err
			}
			tops = append(tops, atomOf(aux, unionVars))
		}
		cur := tops[0]
		for i := 1; i < len(tops); i++ {
			head := atomOf(sym, unionVars)
			if i < len(tops)-1 {
				head = atomOf(b.auxSym(), cur.Vars())
			}
			b.emit(head, datalog.Pos(cur))
			b.emit(head, datalog.Pos(tops[i]))
			cur = head
		}
	}
	return nil
}

// Binarize exposes Lemma C.1: it returns the binarized definitional program
// (equivalent to prog for every IDB relation, via "__b*" intermediates).
func Binarize(prog *datalog.Program) (*datalog.Program, error) {
	b := &binarizer{prog: prog}
	if err := b.binarize(); err != nil {
		return nil, err
	}
	return &datalog.Program{Sources: prog.Sources, View: prog.View, Rules: b.rules}, nil
}

// GeneralIncremental is the general incrementalization of a putback
// program: the binarized definitional program (Lemma C.1), whose
// intermediate relations and ±ri delta relations are materialized with
// per-tuple support counts and maintained by counted IVM (Init, Apply).
// Counting realizes what Figure 7's rewrite rules derive — every
// intermediate's insertion and deletion sets and its new version — without
// emitting those rules as a program.
type GeneralIncremental struct {
	prog   *datalog.Program
	defsEv *eval.Evaluator // binarized definitional program, counted IVM
}

// NewGeneralIncremental binarizes the program and compiles the result.
func NewGeneralIncremental(prog *datalog.Program) (*GeneralIncremental, error) {
	defs, err := Binarize(prog)
	if err != nil {
		return nil, err
	}
	defsEv, err := eval.New(defs)
	if err != nil {
		return nil, fmt.Errorf("core: binarized program does not compile: %w", err)
	}
	return &GeneralIncremental{prog: prog, defsEv: defsEv}, nil
}

// DefinitionProgram returns the binarized definitional program.
func (g *GeneralIncremental) DefinitionProgram() *datalog.Program { return g.defsEv.Program() }

// Init materializes the intermediate step relations over db (which must
// hold the source relations and the current view), together with their
// per-tuple support counts, so that Apply can maintain every binarized
// intermediate — and the final ±ri delta relations — under O(|Δ|)
// propagation (eval.EvalDelta) instead of re-deriving their new versions
// from scratch on every update.
func (g *GeneralIncremental) Init(db *eval.Database) error {
	g.defsEv.InvalidateIVM()
	_, err := g.defsEv.EvalDelta(db, nil)
	return err
}

// Apply performs one incremental update. The view delta is applied to the
// materialized view and propagated through the binarized rule DAG by
// support-count maintenance, which leaves the ±ri delta relations holding
// exactly putdelta(S, V ⊕ ΔV) (Proposition 5.1: the insertion sets of the
// delta relations ARE the new source deltas). The source deltas are then
// applied, and the resulting source changes are propagated the same way,
// so every materialized intermediate ends at its post-update version —
// consistent with a fresh Init over the new database — at O(|Δ|) cost.
func (g *GeneralIncremental) Apply(db *eval.Database, insV, delV *value.Relation) error {
	view := datalog.Pred(g.prog.View.Name)
	arity := g.prog.View.Arity()
	db.Ensure(view, arity)
	// Advance the view in place, recording its exact net delta — a tuple
	// deleted and re-inserted nets out, preserving Delta's disjointness
	// invariant even for overlapping insV/delV inputs.
	vd := eval.NewDelta(arity)
	if delV != nil {
		delV.Each(func(t value.Tuple) {
			if db.Delete(view, t) {
				vd.Del.Add(t)
			}
		})
	}
	if insV != nil {
		insV.Each(func(t value.Tuple) {
			if db.Insert(view, t) {
				if !vd.Del.Remove(t) {
					vd.Ins.Add(t)
				}
			}
		})
	}
	if _, err := g.defsEv.EvalDelta(db, map[datalog.PredSym]eval.Delta{view: vd}); err != nil {
		return err
	}
	// ±ri now hold the derived source deltas; apply them and propagate the
	// source changes so the intermediates advance to the post-update state.
	srcDeltas, err := eval.ApplyDeltasExact(db, g.prog.Sources)
	if err != nil {
		return err
	}
	if len(srcDeltas) == 0 {
		return nil
	}
	_, err = g.defsEv.EvalDelta(db, srcDeltas)
	return err
}
