package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"birds/internal/analysis"
	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/fol"
	"birds/internal/sat"
	"birds/internal/value"
)

// Options configures validation.
type Options struct {
	Oracle sat.Config
}

// DefaultOptions returns the default validation configuration.
func DefaultOptions() Options { return Options{Oracle: sat.DefaultConfig()} }

// Pass names the validation passes of Algorithm 1 (Figure 4).
type Pass string

// The three passes of Algorithm 1, plus the get-derivation sub-pass.
const (
	PassWellDefined   Pass = "well-definedness"
	PassGetPut        Pass = "getput"
	PassGetDerivation Pass = "get-derivation"
	PassPutGet        Pass = "putget"
)

// Failure describes why a putback program was rejected, with the witness
// instance when one was found.
type Failure struct {
	Pass    Pass
	Detail  string
	Witness *eval.Database
}

func (f *Failure) Error() string {
	return fmt.Sprintf("core: %s check failed: %s", f.Pass, f.Detail)
}

// Result is the outcome of Validate.
type Result struct {
	Valid        bool
	Failure      *Failure
	Get          []*datalog.Rule    // the view definition that certifies validity
	UsedExpected bool               // Get came from expected_get rather than derivation
	Class        analysis.Class     // language-fragment classification
	Decomp       *fol.Decomposition // φ1/φ2/φ3 when get was derived
	Elapsed      time.Duration
	Bounded      bool // acceptance relies on the bounded oracle (always true here)
}

// Validate runs Algorithm 1 on a putback program: (1) well-definedness,
// (2) existence of a view definition satisfying GetPut — using expectedGet
// if provided, otherwise deriving get from the φ2 of Lemma 4.2 — and
// (3) the PutGet property. expectedGet, when non-nil, is a set of rules
// defining the view predicate from the sources.
//
// With an expected get the three oracle searches read nothing from one
// another, so they run concurrently: well-definedness on the calling
// goroutine, GetPut and PutGet over the expected get on one goroutine each.
// The verdict keeps Algorithm 1's precedence: a well-definedness failure
// wins and cancels both other searches; a GetPut failure cancels the
// speculative PutGet search, and derivation then runs as without an
// expected get. Over a derived get, PutGet likewise runs on a goroutine of
// its own beside the GetPut replay on the calling goroutine, and a GetPut
// failure cancels it. Every search is deterministic and independent of the
// others, so the Result is the one running the passes one after another
// gives. Validate waits for every goroutine it starts before it returns,
// and re-raises a search's panic on the calling goroutine.
func Validate(pb *Putback, expectedGet []*datalog.Rule, opts Options) (*Result, error) {
	return newValidator(pb, sat.New(opts.Oracle)).validate(expectedGet)
}

// validate is Validate on v. The searches it spawns are left in
// v.searches, each finished by the time it returns.
func (v *validator) validate(expectedGet []*datalog.Rule) (*Result, error) {
	start := time.Now()
	res := &Result{Class: v.pb.Class, Bounded: true}

	fail := func(f *Failure) (*Result, error) {
		res.Failure = f
		res.Elapsed = time.Since(start)
		return res, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		for _, s := range v.searches {
			s.wait()
		}
	}()
	// speculate starts PutGet over get on a goroutine of its own; the
	// returned func cancels it.
	speculate := func(get []*datalog.Rule) (*search, context.CancelFunc) {
		putGetCtx, cancelPutGet := context.WithCancel(ctx)
		return v.spawn(putGetCtx, func(ctx context.Context) (*Failure, error) {
			return v.checkPutGet(ctx, get)
		}), cancelPutGet
	}

	var getPut, putGet *search
	if expectedGet != nil {
		var cancelPutGet context.CancelFunc
		putGet, cancelPutGet = speculate(expectedGet)
		getPut = v.spawn(ctx, func(ctx context.Context) (*Failure, error) {
			f, err := v.checkGetPut(ctx, expectedGet)
			if f != nil {
				cancelPutGet() // derivation replaces the expected get
			}
			return f, err
		})
	}

	// Pass 1: well-definedness (§4.2).
	if f := v.checkWellDefined(); f != nil {
		return fail(f)
	}

	// Pass 2: a view definition satisfying GetPut (§4.3).
	var expectedFailure *Failure
	if getPut != nil {
		f, err := getPut.wait()
		if err != nil {
			return nil, err
		}
		if f == nil {
			res.Get = expectedGet
			res.UsedExpected = true
		} else {
			// Per Algorithm 1, a failing expected_get falls through to
			// derivation rather than rejecting outright.
			expectedFailure = f
		}
	}
	if res.Get == nil {
		get, decomp, f := v.deriveGet()
		if f != nil {
			if expectedFailure != nil {
				// Derivation could not repair the failing expected get;
				// the GetPut counterexample is the more useful report.
				expectedFailure.Detail = fmt.Sprintf(
					"expected get does not satisfy GetPut (%s); derivation also failed: %s",
					expectedFailure.Detail, f.Detail)
				return fail(expectedFailure)
			}
			return fail(f)
		}
		res.Get = get
		res.Decomp = decomp
		var cancelPutGet context.CancelFunc
		putGet, cancelPutGet = speculate(get)
		// The derived get satisfies GetPut by construction; replay the
		// check as a safeguard against oracle blind spots.
		f, err := v.checkGetPut(ctx, get)
		if err != nil {
			return nil, err
		}
		if f != nil {
			cancelPutGet()
			f.Detail = "derived get does not satisfy GetPut: " + f.Detail
			return fail(f)
		}
	}

	// Pass 3: PutGet (§4.4).
	f, err := putGet.wait()
	if err != nil {
		return nil, err
	}
	if f != nil {
		return fail(f)
	}

	res.Valid = true
	res.Elapsed = time.Since(start)
	return res, nil
}

// search is a check running on a goroutine of its own.
type search struct {
	done     chan struct{}
	f        *Failure
	err      error
	panicked any
}

// spawn starts check(ctx) on a new goroutine and records it in v.searches.
func (v *validator) spawn(ctx context.Context, check func(context.Context) (*Failure, error)) *search {
	s := &search{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer func() { s.panicked = recover() }()
		s.f, s.err = check(ctx)
	}()
	v.searches = append(v.searches, s)
	return s
}

// wait returns the check's outcome once it has finished, re-raising its
// panic on the calling goroutine. A nil search has nothing to wait for.
func (s *search) wait() (*Failure, error) {
	if s == nil {
		return nil, nil
	}
	<-s.done
	if s.panicked != nil {
		panic(s.panicked)
	}
	return s.f, s.err
}

// validator carries the state of one validation run that its checks only
// read, so that they can run concurrently. Each check compiles its own
// evaluators, precondition evaluators included. The unfolder is the
// exception: it numbers fresh variables as it goes, so only the
// well-definedness check and the get derivation use it, in that order.
// searches is written by validate's goroutine only.
type validator struct {
	pb       *Putback
	oracle   *sat.Oracle
	unfolder *fol.Unfolder
	consts   []value.Value
	srcSpecs []sat.RelSpec
	allSpecs []sat.RelSpec // sources + view
	searches []*search     // every search validate spawned
}

func newValidator(pb *Putback, oracle *sat.Oracle) *validator {
	v := &validator{
		pb:       pb,
		oracle:   oracle,
		unfolder: fol.NewUnfolder(pb.Prog),
		srcSpecs: sat.SpecsFromDecls(pb.Prog.Sources...),
	}
	v.allSpecs = append(append([]sat.RelSpec{}, v.srcSpecs...),
		sat.SpecsFromDecls(pb.Prog.View)...)
	v.consts = programConstants(pb.Prog)
	return v
}

// constraintPreconditions turns each constraint of prog whose body atoms,
// positive and negated, all name relations of rels into an oracle
// precondition. Every witness a check accepts satisfies Σ, so it satisfies
// such a constraint, and deciding one reads only the relations it names —
// the oracle can reject a partial instance that violates it. Each is
// decided by an evaluator of its own; an evaluation error decides nothing
// (the precondition holds) and is left to the check's Test.
func constraintPreconditions(prog *datalog.Program, rels []sat.RelSpec) []sat.Precondition {
	var out []sat.Precondition
	for _, c := range prog.Constraints() {
		reads, ok := constraintReads(c, rels)
		if !ok {
			continue
		}
		ev, err := eval.New(&datalog.Program{Sources: prog.Sources, View: prog.View, Rules: []*datalog.Rule{c}})
		if err != nil {
			continue
		}
		out = append(out, sat.Precondition{Reads: reads, Holds: func(db *eval.Database) bool {
			violated, err := ev.Violations(db)
			return err != nil || len(violated) == 0
		}})
	}
	return out
}

// constraintReads returns the relations c's body atoms name; ok is false
// when one of them is not a relation of rels.
func constraintReads(c *datalog.Rule, rels []sat.RelSpec) (reads []string, ok bool) {
	for _, l := range c.Body {
		if l.Atom == nil {
			continue
		}
		name := l.Atom.Pred.String()
		if !slices.ContainsFunc(rels, func(r sat.RelSpec) bool { return r.Name == name }) {
			return nil, false
		}
		reads = append(reads, name)
	}
	return reads, true
}

// programConstants collects every constant of a program's rules.
func programConstants(progs ...*datalog.Program) []value.Value {
	var out []value.Value
	seen := make(map[string]bool)
	add := func(t datalog.Term) {
		if t.IsConst() && !seen[t.Const.String()] {
			seen[t.Const.String()] = true
			out = append(out, t.Const)
		}
	}
	for _, p := range progs {
		for _, r := range p.Rules {
			if r.Head != nil {
				for _, t := range r.Head.Args {
					add(t)
				}
			}
			for _, l := range r.Body {
				if l.Atom != nil {
					for _, t := range l.Atom.Args {
						add(t)
					}
				} else {
					add(l.Builtin.L)
					add(l.Builtin.R)
				}
			}
		}
	}
	return out
}

// checkWellDefined searches for an instance (S, V) satisfying Σ on which
// some +ri and -ri share a tuple — the di predicates of rules (2) in §4.2.
// One search covers every source with both +ri and -ri rules: its guide
// is the disjunction of their +ri ∧ -ri unfoldings in Sources order, and
// its Test derives ΔS once per candidate and then checks each such source.
// The failure names the first source, in declaration order, whose +ri and
// -ri meet on the witness.
func (v *validator) checkWellDefined() *Failure {
	var names []string
	var guides []fol.Formula
	for _, s := range v.pb.Prog.Sources {
		ins, del := datalog.Ins(s.Name), datalog.Del(s.Name)
		if len(v.pb.Prog.RulesFor(ins)) == 0 || len(v.pb.Prog.RulesFor(del)) == 0 {
			continue // d_i is trivially unsatisfiable
		}
		args := fol.QueryVars(s.Arity())
		guides = append(guides, fol.NewAnd(v.unfolder.Pred(ins, args), v.unfolder.Pred(del, args)))
		names = append(names, s.Name)
	}
	if len(names) == 0 {
		return nil
	}
	contradictory := func(db *eval.Database, name string) bool {
		insRel := db.RelOrEmpty(datalog.Ins(name), 0)
		delRel := db.RelOrEmpty(datalog.Del(name), 0)
		if insRel.Empty() || delRel.Empty() {
			return false
		}
		return !insRel.Intersect(delRel).Empty()
	}
	ev, err := eval.New(v.pb.Prog)
	if err != nil {
		return &Failure{Pass: PassWellDefined, Detail: fmt.Sprintf("putback program does not compile: %v", err)}
	}
	test := func(db *eval.Database) bool {
		if err := ev.Eval(db); err != nil {
			return false
		}
		if violated, err := ev.Violations(db); err != nil || len(violated) > 0 {
			return false
		}
		return slices.ContainsFunc(names, func(name string) bool { return contradictory(db, name) })
	}
	// Nothing cancels this search, so Find reports no error.
	witness, _ := v.oracle.Find(context.Background(), sat.Problem{
		Rels:        v.allSpecs,
		ExtraConsts: v.consts,
		Guide:       fol.NewOr(guides...),
		Test:        test,
		Pre:         constraintPreconditions(v.pb.Prog, v.allSpecs),
	})
	if witness == nil {
		return nil
	}
	name := names[slices.IndexFunc(names, func(name string) bool { return contradictory(witness, name) })]
	return &Failure{
		Pass:    PassWellDefined,
		Detail:  fmt.Sprintf("the program derives both +%s(t) and -%s(t) for the same tuple (contradictory ΔS)", name, name),
		Witness: witness,
	}
}

// checkGetPut verifies that with the view defined by getRules, the putback
// program produces an empty ΔS on every source database satisfying Σ —
// i.e. put(S, get(S)) = S. It returns a Failure with a witness if GetPut
// does not hold, and the context's error if ctx is cancelled first.
func (v *validator) checkGetPut(ctx context.Context, getRules []*datalog.Rule) (*Failure, error) {
	combined := &datalog.Program{Sources: v.pb.Prog.Sources, View: v.pb.Prog.View}
	combined.Rules = append(combined.Rules, getRules...)
	combined.Rules = append(combined.Rules, v.pb.Prog.Rules...)
	ev, err := eval.New(combined)
	if err != nil {
		return &Failure{Pass: PassGetPut, Detail: fmt.Sprintf("cannot compose get with putdelta: %v", err)}, nil
	}

	u := fol.NewUnfolder(combined)
	var disjuncts []fol.Formula
	var deltaSyms []datalog.PredSym
	for _, s := range v.pb.Prog.Sources {
		for _, d := range []datalog.PredSym{datalog.Ins(s.Name), datalog.Del(s.Name)} {
			if len(v.pb.Prog.RulesFor(d)) == 0 {
				continue
			}
			deltaSyms = append(deltaSyms, d)
			disjuncts = append(disjuncts, u.Pred(d, fol.QueryVars(s.Arity())))
		}
	}
	if len(deltaSyms) == 0 {
		return nil, nil // no delta rules at all: put is the identity
	}
	test := func(db *eval.Database) bool {
		if err := ev.Eval(db); err != nil {
			return false
		}
		if violated, err := ev.Violations(db); err != nil || len(violated) > 0 {
			return false
		}
		for _, d := range deltaSyms {
			if rel := db.Rel(d); rel != nil && !rel.Empty() {
				return true
			}
		}
		return false
	}
	witness, err := v.oracle.Find(ctx, sat.Problem{
		Rels:        v.srcSpecs,
		ExtraConsts: programConstants(v.pb.Prog, &datalog.Program{Rules: getRules}),
		Guide:       fol.NewOr(disjuncts...),
		Test:        test,
		// The view is derived here, so view constraints stay in test.
		Pre: constraintPreconditions(v.pb.Prog, v.srcSpecs),
	})
	if witness == nil {
		return nil, err
	}
	return &Failure{
		Pass:    PassGetPut,
		Detail:  "put(S, get(S)) changes the source for some S (GetPut violated)",
		Witness: witness,
	}, nil
}

// deriveGet constructs a view definition satisfying GetPut per §4.3: build
// the steady-state sentences, decompose them into φ1/φ2/φ3 (Lemma 4.2),
// check that φ3 and ∃Y, φ1 ∧ φ2 are unsatisfiable, and translate φ2 to a
// Datalog query (Appendix B).
func (v *validator) deriveGet() ([]*datalog.Rule, *fol.Decomposition, *Failure) {
	var sentences []fol.Formula
	for _, s := range v.pb.Prog.Sources {
		args := fol.QueryVars(s.Arity())
		srcAtom := &fol.Atom{Pred: s.Name, Args: args}
		if len(v.pb.Prog.RulesFor(datalog.Del(s.Name))) > 0 {
			sentences = append(sentences, fol.NewAnd(v.unfolder.Pred(datalog.Del(s.Name), args), srcAtom))
		}
		if len(v.pb.Prog.RulesFor(datalog.Ins(s.Name))) > 0 {
			sentences = append(sentences, fol.NewAnd(v.unfolder.Pred(datalog.Ins(s.Name), args), fol.NewNot(srcAtom)))
		}
	}
	// Constraints mentioning the view participate in the decomposition;
	// view-free constraints are preconditions on S, not obligations.
	viewName := v.pb.Prog.View.Name
	for _, c := range v.pb.Prog.Constraints() {
		if constraintMentionsView(c, viewName) {
			sentences = append(sentences, v.unfolder.ConstraintSentence(c))
		}
	}

	decomp, err := fol.Decompose(sentences, viewName, v.pb.Prog.View.Arity())
	if err != nil {
		return nil, nil, &Failure{Pass: PassGetDerivation, Detail: err.Error()}
	}

	// φ3 must be unsatisfiable over source databases satisfying the
	// source-only constraints.
	for _, phi3 := range decomp.Phi3 {
		if w := v.findSourceModel(phi3); w != nil {
			return nil, decomp, &Failure{
				Pass:    PassGetDerivation,
				Detail:  "no steady-state view exists: the view-free condition φ3 is satisfiable, so some source database admits no consistent view",
				Witness: w,
			}
		}
	}
	// ∃Y, φ1 ∧ φ2 must be unsatisfiable.
	conj := fol.NewAnd(decomp.Phi1, decomp.Phi2)
	if t, isTruth := conj.(fol.Truth); !isTruth || t.B {
		if w := v.findSourceModel(conj); w != nil {
			return nil, decomp, &Failure{
				Pass:    PassGetDerivation,
				Detail:  "no steady-state view exists: the lower bound φ2 exceeds the upper bound ¬φ1 (∃Y, φ1 ∧ φ2 is satisfiable)",
				Witness: w,
			}
		}
	}

	getRules, err := fol.ToDatalog(decomp.Phi2, decomp.ViewVars, viewName)
	if err != nil {
		return nil, decomp, &Failure{
			Pass:   PassGetDerivation,
			Detail: fmt.Sprintf("φ2 is not expressible as a Datalog view definition: %v", err),
		}
	}
	return getRules, decomp, nil
}

// findSourceModel searches for a source database satisfying the view-free
// constraints on which sentence holds.
func (v *validator) findSourceModel(sentence fol.Formula) *eval.Database {
	srcCons := v.sourceOnlyConstraintSentences()
	consts := append([]value.Value{}, v.consts...)
	for _, c := range fol.Constants(sentence) {
		consts = append(consts, c.Const)
	}
	test := func(db *eval.Database) bool {
		m := fol.NewModel(db, consts...)
		for _, pc := range srcCons {
			if m.Sat(pc) {
				return false // violates a source precondition
			}
		}
		return m.Sat(sentence)
	}
	// Nothing cancels this search, so Find reports no error.
	w, _ := v.oracle.Find(context.Background(), sat.Problem{
		Rels:        v.srcSpecs,
		ExtraConsts: consts,
		Guide:       sentence,
		Test:        test,
		Pre:         constraintPreconditions(v.pb.Prog, v.srcSpecs), // test checks these constraints as sentences
	})
	return w
}

func (v *validator) sourceOnlyConstraintSentences() []fol.Formula {
	var out []fol.Formula
	for _, c := range v.pb.Prog.Constraints() {
		if !constraintMentionsView(c, v.pb.Prog.View.Name) {
			out = append(out, v.unfolder.ConstraintSentence(c))
		}
	}
	return out
}

func constraintMentionsView(c *datalog.Rule, view string) bool {
	for _, l := range c.Body {
		if l.Atom != nil && l.Atom.Pred == datalog.Pred(view) {
			return true
		}
	}
	return false
}

// checkPutGet verifies get(put(S, V)) = V for all (S, V) satisfying Σ, by
// composing the putget program of §4.4 and searching for an instance where
// new_v differs from v (the sentences Φ1 and Φ2 of (9) and (10)). The
// whole putget program guides the search and seeds its constants; Test
// derives ΔS once with the putback program, which it needs for the
// constraint check anyway, builds each new_ri = ri ⊕ ΔS directly and then
// evaluates only the renamed get rules of the PutGetCone over them. It
// returns the context's error if ctx is cancelled before the search ends.
func (v *validator) checkPutGet(ctx context.Context, getRules []*datalog.Rule) (*Failure, error) {
	prog := v.pb.Prog
	newGet, err := renamedGet(prog, getRules)
	if err != nil {
		return &Failure{Pass: PassPutGet, Detail: err.Error()}, nil
	}
	pbEv, err := eval.New(prog)
	if err != nil {
		return &Failure{Pass: PassPutGet, Detail: fmt.Sprintf("putback program does not compile: %v", err)}, nil
	}
	getEv, err := eval.New(&datalog.Program{Sources: prog.Sources, View: prog.View, Rules: newGet})
	if err != nil {
		return &Failure{Pass: PassPutGet, Detail: fmt.Sprintf("putget program does not compile: %v", err)}, nil
	}
	putget := withPutback(prog, coneOf(prog, newGet))
	viewSym := datalog.Pred(prog.View.Name)
	newView := NewViewSym(prog.View.Name)
	arity := prog.View.Arity()

	u := fol.NewUnfolder(putget)
	y := fol.QueryVars(arity)
	vAtom := &fol.Atom{Pred: viewSym.Name, Args: y}
	newF := u.Pred(newView, y)
	guide := fol.NewOr(
		fol.NewAnd(newF, fol.NewNot(vAtom)), // Φ1
		fol.NewAnd(vAtom, fol.NewNot(newF)), // Φ2
	)

	test := func(db *eval.Database) bool {
		// The updated view must satisfy Σ to be an admissible update.
		if err := pbEv.Eval(db); err != nil {
			return false
		}
		if violated, err := pbEv.Violations(db); err != nil || len(violated) > 0 {
			return false
		}
		for _, s := range prog.Sources {
			db.Update(NewSourceSym(s.Name), updatedSource(db, s))
		}
		if err := getEv.Eval(db); err != nil {
			return false
		}
		got := db.RelOrEmpty(newView, arity)
		want := db.RelOrEmpty(viewSym, arity)
		return !got.Equal(want)
	}
	witness, err := v.oracle.Find(ctx, sat.Problem{
		Rels:        v.allSpecs,
		ExtraConsts: programConstants(putget),
		Guide:       guide,
		Test:        test,
		Pre:         constraintPreconditions(prog, v.allSpecs),
	})
	if witness == nil {
		return nil, err
	}
	return &Failure{
		Pass:    PassPutGet,
		Detail:  "get(put(S, V)) ≠ V for some admissible (S, V) (PutGet violated)",
		Witness: witness,
	}, nil
}

// updatedSource returns new_s = s ⊕ ΔS on db, the relation the cone's
// updated-source rules derive: (s \ -s) ∪ +s. It is a snapshot of s when
// ΔS leaves s unchanged, and otherwise a copy with the deltas applied.
func updatedSource(db *eval.Database, s *datalog.RelDecl) *value.Relation {
	rel := db.RelOrEmpty(datalog.Pred(s.Name), s.Arity())
	ins, del := db.Rel(datalog.Ins(s.Name)), db.Rel(datalog.Del(s.Name))
	insEmpty, delEmpty := ins == nil || ins.Empty(), del == nil || del.Empty()
	if insEmpty && delEmpty {
		return rel.Snapshot()
	}
	out := rel.Clone()
	if !delEmpty {
		out.SubtractAll(del)
	}
	if !insEmpty {
		out.UnionWith(ins)
	}
	return out
}
