// Package datalog defines the abstract syntax of the view-update-strategy
// language of the paper — nonrecursive Datalog with negation, built-in
// predicates (=, <>, <, >, <=, >=), constants, delta predicates (+r / -r)
// and integrity constraints (rules with a ⊥ head) — together with a parser
// and a pretty-printer.
//
// The concrete syntax accepted is the one used throughout the paper, e.g.
//
//	source ed(emp_name:string, dept_name:string).
//	source eed(emp_name:string, dept_name:string).
//	view ced(emp_name:string, dept_name:string).
//
//	+ed(E,D)  :- ced(E,D), not ed(E,D).
//	-eed(E,D) :- ced(E,D), eed(E,D).
//	+eed(E,D) :- ed(E,D), not ced(E,D), not eed(E,D).
//
// Both ASCII (`not`, `:-`, `_|_`, `<>`) and the paper's typography
// (`¬`, `⊥`, `≠`) are accepted. `%` starts a line comment.
package datalog

import (
	"fmt"
	"strings"

	"birds/internal/value"
)

// Delta marks a predicate symbol as a plain relation or as one of the two
// delta relations of Section 3.1 (+r: insertion set, -r: deletion set).
type Delta uint8

// Delta markers.
const (
	NoDelta Delta = iota // r
	Insert               // +r
	Delete               // -r
)

func (d Delta) String() string {
	switch d {
	case Insert:
		return "+"
	case Delete:
		return "-"
	default:
		return ""
	}
}

// PredSym is a (possibly delta-marked) predicate symbol.
type PredSym struct {
	Name  string
	Delta Delta
}

// Pred returns the plain (non-delta) symbol for name.
func Pred(name string) PredSym { return PredSym{Name: name} }

// Ins returns the insertion delta symbol +name.
func Ins(name string) PredSym { return PredSym{Name: name, Delta: Insert} }

// Del returns the deletion delta symbol -name.
func Del(name string) PredSym { return PredSym{Name: name, Delta: Delete} }

// IsDelta reports whether p is a delta predicate.
func (p PredSym) IsDelta() bool { return p.Delta != NoDelta }

// Base returns the underlying non-delta symbol.
func (p PredSym) Base() PredSym { return PredSym{Name: p.Name} }

func (p PredSym) String() string { return p.Delta.String() + p.Name }

// TermKind discriminates Term.
type TermKind uint8

// Kinds of terms.
const (
	TermVar   TermKind = iota // a variable (X, Y, Emp, ...)
	TermConst                 // a constant ('F', 42, 1.5, true)
	TermAnon                  // the anonymous variable _
)

// Term is an argument of an atom or an operand of a built-in predicate.
type Term struct {
	Kind  TermKind
	Var   string      // variable name when Kind == TermVar
	Const value.Value // constant when Kind == TermConst
}

// V returns a variable term.
func V(name string) Term { return Term{Kind: TermVar, Var: name} }

// C returns a constant term.
func C(v value.Value) Term { return Term{Kind: TermConst, Const: v} }

// CInt returns an integer constant term.
func CInt(i int64) Term { return C(value.Int(i)) }

// CStr returns a string constant term.
func CStr(s string) Term { return C(value.Str(s)) }

// Anon returns the anonymous variable term.
func Anon() Term { return Term{Kind: TermAnon} }

// IsVar reports whether t is a named variable.
func (t Term) IsVar() bool { return t.Kind == TermVar }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.Kind == TermConst }

// IsAnon reports whether t is the anonymous variable.
func (t Term) IsAnon() bool { return t.Kind == TermAnon }

func (t Term) String() string {
	switch t.Kind {
	case TermVar:
		return t.Var
	case TermConst:
		return t.Const.String()
	default:
		return "_"
	}
}

// Equal reports structural equality of terms.
func (t Term) Equal(u Term) bool {
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case TermVar:
		return t.Var == u.Var
	case TermConst:
		return t.Const.Equal(u.Const)
	default:
		return true
	}
}

// Atom is a predicate applied to terms: r(X, 'F', _).
type Atom struct {
	Pred PredSym
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(p PredSym, args ...Term) *Atom { return &Atom{Pred: p, Args: args} }

// Arity returns the number of arguments.
func (a *Atom) Arity() int { return len(a.Args) }

// Vars returns the named variables of the atom in order of first occurrence.
func (a *Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// HasAnon reports whether any argument is the anonymous variable.
func (a *Atom) HasAnon() bool {
	for _, t := range a.Args {
		if t.IsAnon() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the atom.
func (a *Atom) Clone() *Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return &Atom{Pred: a.Pred, Args: args}
}

func (a *Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred.String() + "(" + strings.Join(parts, ", ") + ")"
}

// CmpOp is a built-in comparison operator.
type CmpOp uint8

// Built-in comparison operators.
const (
	OpEq CmpOp = iota // =
	OpNe              // <>
	OpLt              // <
	OpGt              // >
	OpLe              // <=
	OpGe              // >=
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	case OpLe:
		return "<="
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Negate returns the complementary operator (= ↔ <>, < ↔ >=, > ↔ <=).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpGe:
		return OpLt
	case OpGt:
		return OpLe
	default: // OpLe
		return OpGt
	}
}

// Eval applies the comparison to two constants.
func (op CmpOp) Eval(a, b value.Value) bool {
	switch op {
	case OpEq:
		return a.Equal(b)
	case OpNe:
		return !a.Equal(b)
	case OpLt:
		return a.Compare(b) < 0
	case OpGt:
		return a.Compare(b) > 0
	case OpLe:
		return a.Compare(b) <= 0
	default: // OpGe
		return a.Compare(b) >= 0
	}
}

// Builtin is a built-in comparison predicate t1 op t2.
type Builtin struct {
	Op   CmpOp
	L, R Term
}

func (b *Builtin) String() string {
	return b.L.String() + " " + b.Op.String() + " " + b.R.String()
}

// Vars returns the named variables of the built-in.
func (b *Builtin) Vars() []string {
	var out []string
	if b.L.IsVar() {
		out = append(out, b.L.Var)
	}
	if b.R.IsVar() && (!b.L.IsVar() || b.R.Var != b.L.Var) {
		out = append(out, b.R.Var)
	}
	return out
}

// Literal is one conjunct of a rule body: a (possibly negated) atom or a
// (possibly negated) built-in predicate. Exactly one of Atom and Builtin is
// non-nil.
type Literal struct {
	Neg     bool
	Atom    *Atom
	Builtin *Builtin
}

// Pos returns a positive atom literal.
func Pos(a *Atom) Literal { return Literal{Atom: a} }

// Neg returns a negated atom literal.
func Negated(a *Atom) Literal { return Literal{Neg: true, Atom: a} }

// Cmp returns a built-in comparison literal.
func Cmp(op CmpOp, l, r Term) Literal { return Literal{Builtin: &Builtin{Op: op, L: l, R: r}} }

// NegCmp returns a negated built-in comparison literal.
func NegCmp(op CmpOp, l, r Term) Literal {
	return Literal{Neg: true, Builtin: &Builtin{Op: op, L: l, R: r}}
}

// IsAtom reports whether the literal is an atom literal.
func (l Literal) IsAtom() bool { return l.Atom != nil }

// IsBuiltin reports whether the literal is a built-in literal.
func (l Literal) IsBuiltin() bool { return l.Builtin != nil }

// Vars returns the named variables of the literal.
func (l Literal) Vars() []string {
	if l.Atom != nil {
		return l.Atom.Vars()
	}
	return l.Builtin.Vars()
}

// Clone returns a deep copy of the literal.
func (l Literal) Clone() Literal {
	out := Literal{Neg: l.Neg}
	if l.Atom != nil {
		out.Atom = l.Atom.Clone()
	}
	if l.Builtin != nil {
		b := *l.Builtin
		out.Builtin = &b
	}
	return out
}

func (l Literal) String() string {
	var body string
	if l.Atom != nil {
		body = l.Atom.String()
	} else {
		body = l.Builtin.String()
	}
	if l.Neg {
		return "not " + body
	}
	return body
}

// Rule is a Datalog rule H :- L1, ..., Ln. A rule with a nil Head is an
// integrity constraint (⊥ :- body), per Section 3.2.3.
type Rule struct {
	Head *Atom // nil for constraints
	Body []Literal
}

// NewRule builds a rule.
func NewRule(head *Atom, body ...Literal) *Rule { return &Rule{Head: head, Body: body} }

// NewConstraint builds an integrity constraint ⊥ :- body.
func NewConstraint(body ...Literal) *Rule { return &Rule{Body: body} }

// IsConstraint reports whether the rule is an integrity constraint.
func (r *Rule) IsConstraint() bool { return r.Head == nil }

// Clone returns a deep copy of the rule.
func (r *Rule) Clone() *Rule {
	out := &Rule{}
	if r.Head != nil {
		out.Head = r.Head.Clone()
	}
	out.Body = make([]Literal, len(r.Body))
	for i, l := range r.Body {
		out.Body[i] = l.Clone()
	}
	return out
}

// Vars returns all named variables of the rule in order of first occurrence.
func (r *Rule) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(vs []string) {
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	if r.Head != nil {
		add(r.Head.Vars())
	}
	for _, l := range r.Body {
		add(l.Vars())
	}
	return out
}

func (r *Rule) String() string {
	head := "_|_"
	if r.Head != nil {
		head = r.Head.String()
	}
	if len(r.Body) == 0 {
		return head + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return head + " :- " + strings.Join(parts, ", ") + "."
}

// AttrDecl is one attribute of a relation declaration, e.g. emp_name:string.
type AttrDecl struct {
	Name string
	Type string // int | float | string | bool | date (informational; date ≡ string)
}

// RelDecl declares a source or view relation schema.
type RelDecl struct {
	Name  string
	Attrs []AttrDecl
}

// Arity returns the declared arity.
func (d *RelDecl) Arity() int { return len(d.Attrs) }

func (d *RelDecl) String() string {
	parts := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		parts[i] = a.Name + ":" + a.Type
	}
	return d.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Program is a parsed putback program: source declarations, one view
// declaration, update rules (delta heads), auxiliary rules, and constraints.
type Program struct {
	Sources []*RelDecl
	View    *RelDecl
	Rules   []*Rule // in source order; constraints have nil heads
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	out := &Program{}
	for _, s := range p.Sources {
		c := *s
		c.Attrs = append([]AttrDecl(nil), s.Attrs...)
		out.Sources = append(out.Sources, &c)
	}
	if p.View != nil {
		c := *p.View
		c.Attrs = append([]AttrDecl(nil), p.View.Attrs...)
		out.View = &c
	}
	for _, r := range p.Rules {
		out.Rules = append(out.Rules, r.Clone())
	}
	return out
}

// Renamed returns a deep copy of the program in which every atom whose
// predicate (delta marker included) is a key of rename — rule heads and
// body occurrences alike — takes the mapped predicate instead.
func (p *Program) Renamed(rename map[PredSym]PredSym) *Program {
	out := p.Clone()
	re := func(a *Atom) {
		if a == nil {
			return
		}
		if q, ok := rename[a.Pred]; ok {
			a.Pred = q
		}
	}
	for _, r := range out.Rules {
		re(r.Head)
		for _, l := range r.Body {
			re(l.Atom)
		}
	}
	return out
}

// Source returns the declaration of the named source relation, or nil.
func (p *Program) Source(name string) *RelDecl {
	for _, s := range p.Sources {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Constraints returns the integrity-constraint rules.
func (p *Program) Constraints() []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if r.IsConstraint() {
			out = append(out, r)
		}
	}
	return out
}

// NonConstraintRules returns the rules that define predicates.
func (p *Program) NonConstraintRules() []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if !r.IsConstraint() {
			out = append(out, r)
		}
	}
	return out
}

// DeltaRules returns the rules whose heads are delta predicates on sources.
func (p *Program) DeltaRules() []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if !r.IsConstraint() && r.Head.Pred.IsDelta() {
			out = append(out, r)
		}
	}
	return out
}

// RulesFor returns the rules whose head predicate is p (matching delta
// markers exactly).
func (p *Program) RulesFor(sym PredSym) []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if !r.IsConstraint() && r.Head.Pred == sym {
			out = append(out, r)
		}
	}
	return out
}

// IDBPreds returns the set of predicates defined by some rule head.
func (p *Program) IDBPreds() map[PredSym]bool {
	out := make(map[PredSym]bool)
	for _, r := range p.Rules {
		if !r.IsConstraint() {
			out[r.Head.Pred] = true
		}
	}
	return out
}

// String renders the full program in parseable concrete syntax.
func (p *Program) String() string {
	var b strings.Builder
	for _, s := range p.Sources {
		b.WriteString("source ")
		b.WriteString(s.String())
		b.WriteString(".\n")
	}
	if p.View != nil {
		b.WriteString("view ")
		b.WriteString(p.View.String())
		b.WriteString(".\n")
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// LOC returns the number of rule lines of the program (declarations
// excluded), the "Program size (LOC)" metric of Table 1.
func (p *Program) LOC() int { return len(p.Rules) }
