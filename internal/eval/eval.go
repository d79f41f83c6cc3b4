package eval

import (
	"fmt"

	"birds/internal/analysis"
	"birds/internal/datalog"
	"birds/internal/value"
)

// Evaluator is a compiled, reusable bottom-up evaluator for a nonrecursive
// Datalog program. Compile once with New, then call Eval repeatedly as the
// EDB changes. An Evaluator (and the Database it runs over) is not safe
// for concurrent use by multiple callers; callers serialize (the engine
// holds one lock per transaction).
type Evaluator struct {
	prog        *datalog.Program
	order       []datalog.PredSym
	plan        []predPlan // order resolved to rules and arities
	deps        map[datalog.PredSym][]datalog.PredSym
	rules       map[datalog.PredSym][]*rulePlans
	constraints []*compiledRule
	arities     map[datalog.PredSym]int

	// Full-evaluation scratch, owned so that a warm Eval allocates only
	// what it derives: the streaming probe-table cache (emptied when each
	// evaluation returns) and the sink collecting one predicate's output,
	// with its emit callback bound once.
	ec      evalCtx
	out     sink
	emitOut func(value.Tuple) bool

	// Counting-based incremental view maintenance state (ivm.go): the
	// per-IDB support counts EvalDelta keeps, and the compiled delta plans
	// (one per rule and driver literal). deltaRules is built lazily on the
	// first EvalDelta; ivm is dropped whenever a full evaluation replaces
	// the IDB relations it describes.
	deltaRules map[datalog.PredSym][]*deltaRule
	ivm        *ivmState
}

// New stratifies and compiles the program. It fails on recursive or unsafe
// programs and on head arity conflicts.
func New(prog *datalog.Program) (*Evaluator, error) {
	order, err := analysis.Stratify(prog)
	if err != nil {
		return nil, err
	}
	if err := analysis.CheckSafety(prog); err != nil {
		return nil, err
	}
	e := &Evaluator{
		prog:    prog,
		order:   order,
		rules:   make(map[datalog.PredSym][]*rulePlans),
		arities: make(map[datalog.PredSym]int),
	}
	e.emitOut = e.out.add
	for _, r := range prog.Rules {
		if r.IsConstraint() {
			cr, err := compilePlan(r, -1)
			if err != nil {
				return nil, err
			}
			e.constraints = append(e.constraints, cr)
			continue
		}
		rp, err := compileRule(r)
		if err != nil {
			return nil, err
		}
		h := r.Head.Pred
		if a, ok := e.arities[h]; ok && a != r.Head.Arity() {
			return nil, fmt.Errorf("eval: predicate %s defined with arities %d and %d", h, a, r.Head.Arity())
		}
		e.arities[h] = r.Head.Arity()
		e.rules[h] = append(e.rules[h], rp)
	}

	e.plan = make([]predPlan, len(order))
	for i, sym := range order {
		e.plan[i] = predPlan{sym: sym, arity: e.arities[sym], rules: e.rules[sym]}
	}
	e.assignSlots()

	// Restrict the dependency graph to IDB predicates (EvalQuery's cone).
	idb := prog.IDBPreds()
	e.deps = make(map[datalog.PredSym][]datalog.PredSym, len(order))
	for sym, ds := range analysis.Deps(prog) {
		for _, d := range ds {
			if idb[d] {
				e.deps[sym] = append(e.deps[sym], d)
			}
		}
	}
	return e, nil
}

// Program returns the compiled program.
func (e *Evaluator) Program() *datalog.Program { return e.prog }

// IDBOrder returns the bottom-up evaluation order of IDB predicates.
func (e *Evaluator) IDBOrder() []datalog.PredSym { return e.order }

// Eval computes every IDB relation bottom-up and stores the results in db
// (replacing any previous IDB contents). The EDB relations of db are read
// but not modified.
func (e *Evaluator) Eval(db *Database) error {
	return e.evalPreds(db, nil)
}

// predPlan is one IDB predicate of the evaluation order with its rules and
// arity resolved at compile time.
type predPlan struct {
	sym   datalog.PredSym
	arity int
	rules []*rulePlans
}

// assignSlots numbers every predicate the rule and constraint plans read
// with a program-local relation slot (step.slot), so that an evaluation
// resolves each relation once instead of hashing its symbol at every step
// of every variant. IDB predicate i of the evaluation order has slot i,
// resolved when the evaluation installs it; the EDB predicates follow,
// resolved when the evaluation starts (evalCtx.bind). The slots live in
// the evaluator's own context: two evaluators sharing a Database never
// share slots.
func (e *Evaluator) assignSlots() {
	slot := make(map[datalog.PredSym]int, len(e.order))
	syms := append([]datalog.PredSym(nil), e.order...)
	for i, sym := range syms {
		slot[sym] = i
	}
	number := func(plan *compiledRule) {
		for j := range plan.steps {
			st := &plan.steps[j]
			if st.kind == stepBuiltin {
				continue
			}
			k, ok := slot[st.pred]
			if !ok {
				k = len(syms)
				slot[st.pred] = k
				syms = append(syms, st.pred)
			}
			st.slot = k
		}
	}
	for _, p := range e.plan {
		for _, rp := range p.rules {
			for _, v := range rp.variants {
				number(v)
			}
		}
	}
	for _, cr := range e.constraints {
		number(cr)
	}
	e.ec = newEvalCtx(syms, len(e.order))
}

// sink collects one predicate's derived tuples during a full evaluation.
// The relation is allocated on the first tuple, so a predicate deriving
// nothing allocates nothing.
type sink struct {
	arity int
	rel   *value.Relation
}

func (s *sink) add(t value.Tuple) bool {
	if s.rel == nil {
		s.rel = value.NewRelation(s.arity)
	}
	s.rel.Add(t)
	return true
}

// evalPreds evaluates the IDB predicates for which include returns true (a
// nil include evaluates all), in topological order. Each rule runs its
// cheapest driver variant over probe tables shared through the evaluator's
// context, which is emptied when the evaluation returns (stream.go).
func (e *Evaluator) evalPreds(db *Database, include map[datalog.PredSym]bool) error {
	e.ec.bind(db)
	defer e.ec.reset()
	for i := range e.plan {
		p := &e.plan[i]
		if include != nil && !include[p.sym] {
			continue
		}
		if err := e.evalPred(db, i); err != nil {
			return err
		}
		e.ec.refresh(db, i)
	}
	return nil
}

// evalPred evaluates IDB predicate i's rules and installs the result. A
// predicate that derives nothing keeps an installed relation that is
// already empty.
func (e *Evaluator) evalPred(db *Database, i int) error {
	p := &e.plan[i]
	e.out = sink{arity: p.arity}
	for _, rp := range p.rules {
		if err := rp.run(db, &e.ec, e.emitOut); err != nil {
			e.out.rel = nil
			return err
		}
	}
	out := e.out.rel
	e.out.rel = nil
	if out == nil {
		if old := e.ec.rel(db, i); old != nil && old.Empty() {
			return nil
		}
		out = value.NewRelation(p.arity)
	}
	e.installEval(db, i, out)
	return nil
}

// installEval installs IDB predicate i's freshly evaluated relation. A full
// evaluation replacing IDB relations wholesale invalidates any support
// counts EvalDelta keeps — except when the evaluation is a no-op for the
// predicate (the new relation equals the installed one): then the
// materialized state is untouched and valid maintenance state for db
// survives. Counts are dropped lazily, on the first output that actually
// changed. The equality check is the safety net for databases mutated
// behind the evaluator's back; under EvalDelta's documented contract
// (every EDB change flows through it) surviving counts already describe
// the current EDB exactly.
func (e *Evaluator) installEval(db *Database, i int, out *value.Relation) {
	if e.IVMReady(db) {
		old := e.ec.rel(db, i)
		if (old == nil && out.Empty()) || (old != nil && old.Equal(out)) {
			return
		}
		e.ivm = nil
	}
	// Update, not Set: keep any join indexes on the IDB predicate alive,
	// rebuilt from the fresh relation, instead of dropping them to be
	// lazily reconstructed on the next evaluation.
	db.updateAt(e.ec.slotFor(db, i), out)
}

// cone returns the goal's dependency cone: the IDB predicates transitively
// reachable from goal (including goal itself) through the rule bodies.
func (e *Evaluator) cone(goal datalog.PredSym) map[datalog.PredSym]bool {
	out := make(map[datalog.PredSym]bool)
	if _, ok := e.arities[goal]; !ok {
		return out
	}
	var visit func(sym datalog.PredSym)
	visit = func(sym datalog.PredSym) {
		if out[sym] {
			return
		}
		out[sym] = true
		for _, d := range e.deps[sym] {
			visit(d)
		}
	}
	visit(goal)
	return out
}

// EvalQuery evaluates the goal's dependency cone — only the IDB predicates
// the goal transitively reads, not the whole program — and returns the
// relation for goal. IDB predicates outside the cone are left untouched in
// db.
func (e *Evaluator) EvalQuery(db *Database, goal datalog.PredSym) (*value.Relation, error) {
	if err := e.evalPreds(db, e.cone(goal)); err != nil {
		return nil, err
	}
	if r := db.Rel(goal); r != nil {
		return r, nil
	}
	return value.NewRelation(e.arities[goal]), nil
}

// Violations evaluates the integrity constraints over db (IDB relations
// must already be evaluated if constraints mention them) and returns the
// violated constraint rules. Constraints run their greedy plans with lazy
// resolution (runCtx), whose keyed probes build maintained indexes on db:
// the engine's delta-constraint check reuses them on its long-lived store,
// and the validation oracle across the instances it refills. Their steps
// resolve relations through the evaluator's slots, like Eval's.
func (e *Evaluator) Violations(db *Database) ([]*datalog.Rule, error) {
	var out []*datalog.Rule
	for _, cr := range e.constraints {
		found := false
		cr.rc.db, cr.rc.ec = db, &e.ec
		if err := cr.run(&cr.rc, func(value.Tuple) bool {
			found = true
			return false // one witness is enough
		}); err != nil {
			return nil, err
		}
		if found {
			out = append(out, cr.rule)
		}
	}
	return out, nil
}

// --- rule compilation -------------------------------------------------

// stepKind discriminates plan steps.
type stepKind uint8

const (
	stepScan    stepKind = iota // iterate/probe a positive atom
	stepNegAtom                 // check a negated atom is unmatched
	stepBuiltin                 // evaluate or bind through a built-in
)

// argSlot describes one atom argument in a compiled step.
type argSlot struct {
	anon  bool
	isVar bool
	v     int         // env slot when isVar
	c     value.Value // constant otherwise
}

// step is one operation of a rule plan.
type step struct {
	kind stepKind
	// scan / negated atom:
	pred    datalog.PredSym
	slot    int // full and constraint plans: program-local relation slot of pred (assignSlots)
	args    []argSlot
	keyPos  []int  // positions bound at entry (probe key); nil = full scan
	mask    string // keyPos rendered once, for ephemeral-table cache keys
	fullKey bool   // every position bound (scan or negation): direct Contains, no keyPos
	old     bool   // delta plans only: read the pre-delta version of pred
	// builtin:
	neg    bool
	op     datalog.CmpOp
	left   argSlot
	right  argSlot
	bindLt bool // equality binds the left slot
	bindRt bool // equality binds the right slot
}

// compiledRule is an executable plan for one rule. The plan owns a runtime
// environment (variable bindings plus per-step scratch buffers) and a run
// context (per-step resolution slots), both allocated once at compile time
// and reused across runs.
type compiledRule struct {
	rule  *datalog.Rule
	nvars int
	steps []step
	head  []argSlot // nil for constraints
	en    *env
	rc    runCtx
}

// rulePlans is one rule's driver variants (compileRule), each with its own
// variable numbering and environment. pickVariant chooses among them per
// evaluation by the tuples each would scan and hash (streamCost).
type rulePlans struct {
	rule     *datalog.Rule
	variants []*compiledRule
}

// varIndexer assigns dense indexes to variable names.
type varIndexer struct {
	idx map[string]int
}

func (vi *varIndexer) slot(name string) int {
	if i, ok := vi.idx[name]; ok {
		return i
	}
	i := len(vi.idx)
	vi.idx[name] = i
	return i
}

func termSlot(vi *varIndexer, t datalog.Term) argSlot {
	switch t.Kind {
	case datalog.TermAnon:
		return argSlot{anon: true}
	case datalog.TermVar:
		return argSlot{isVar: true, v: vi.slot(t.Var)}
	default:
		return argSlot{c: t.Const}
	}
}

// compileRule compiles the rule's driver variants: one plan per positive
// body atom, forced to run first as the streamed outer scan, or the greedy
// plan alone for a body without one. Whether a body can be ordered does not
// depend on which atom runs first, so a variant that fails rejects the rule.
func compileRule(r *datalog.Rule) (*rulePlans, error) {
	rp := &rulePlans{rule: r}
	for di, l := range r.Body {
		if l.Atom == nil || l.Neg {
			continue
		}
		v, err := compilePlan(r, di)
		if err != nil {
			return nil, err
		}
		rp.variants = append(rp.variants, v)
	}
	if len(rp.variants) == 0 {
		cr, err := compilePlan(r, -1)
		if err != nil {
			return nil, err
		}
		rp.variants = []*compiledRule{cr}
	}
	return rp, nil
}

// compilePlan orders the body literals greedily so every step's inputs are
// bound when it runs, and precomputes probe-key positions for hash lookups.
// driver >= 0 forces body literal driver (a positive atom) to run first as
// a full scan — constants and repeated variables filter during the scan —
// with the remaining literals greedily ordered against its bindings;
// driver < 0 lets the greedy ordering pick freely.
func compilePlan(r *datalog.Rule, driver int) (*compiledRule, error) {
	vi := &varIndexer{idx: make(map[string]int)}
	cr := &compiledRule{rule: r}
	bound := make(map[string]bool)
	lits := r.Body
	if driver >= 0 {
		dl := r.Body[driver]
		st := step{kind: stepScan, pred: dl.Atom.Pred}
		for _, t := range dl.Atom.Args {
			st.args = append(st.args, termSlot(vi, t))
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
		cr.steps = append(cr.steps, st)
		lits = make([]datalog.Literal, 0, len(r.Body)-1)
		for j, l := range r.Body {
			if j != driver {
				lits = append(lits, l)
			}
		}
	}
	steps, err := compileBody(vi, bound, lits, nil, r)
	if err != nil {
		return nil, err
	}
	cr.steps = append(cr.steps, steps...)

	if r.Head != nil {
		for _, t := range r.Head.Args {
			if t.IsAnon() {
				return nil, fmt.Errorf("eval: rule %q: anonymous variable in head", r)
			}
			cr.head = append(cr.head, termSlot(vi, t))
		}
	}
	for i := range cr.steps {
		cr.steps[i].mask = maskOf(cr.steps[i].keyPos)
	}
	cr.nvars = len(vi.idx)
	cr.en = newEnvFor(cr.steps, cr.nvars)
	cr.rc.res = make([]stepRes, len(cr.steps))
	return cr, nil
}

// compileBody greedily orders the literals so every step's inputs are bound
// when it runs, and precomputes probe-key positions for hash lookups. bound
// seeds the variables already bound on entry (empty for a full rule plan; a
// delta plan seeds the variables its driver literal binds). oldOf, when
// non-nil, marks per literal whether the step must read the pre-delta (old)
// version of its relation — the annotation delta plans use to implement the
// new/Δ/old join expansion; it is aligned with lits.
func compileBody(vi *varIndexer, bound map[string]bool, lits []datalog.Literal, oldOf []bool, r *datalog.Rule) ([]step, error) {
	var steps []step
	type pending struct {
		lit datalog.Literal
		old bool
	}
	remaining := make([]pending, len(lits))
	for i, l := range lits {
		remaining[i] = pending{lit: l}
		if oldOf != nil {
			remaining[i].old = oldOf[i]
		}
	}

	allBound := func(vars []string) bool {
		for _, v := range vars {
			if !bound[v] {
				return false
			}
		}
		return true
	}

	// rank returns the priority of a literal given current bindings, or -1
	// if the literal is not ready. Lower ranks run earlier.
	rank := func(l datalog.Literal) int {
		if l.Builtin != nil {
			b := l.Builtin
			if !l.Neg && b.Op == datalog.OpEq {
				lb := !b.L.IsVar() || bound[b.L.Var]
				rb := !b.R.IsVar() || bound[b.R.Var]
				if lb || rb {
					return 0 // binds or filters immediately
				}
				return -1
			}
			if allBound(l.Vars()) {
				return 1
			}
			return -1
		}
		if l.Neg {
			if allBound(l.Atom.Vars()) {
				return 2
			}
			return -1
		}
		// Positive atom: always ready. Prefer small delta relations as the
		// outer loop, then atoms connected to the current bindings.
		shares := false
		for _, v := range l.Atom.Vars() {
			if bound[v] {
				shares = true
				break
			}
		}
		switch {
		case l.Atom.Pred.IsDelta():
			return 3 // delta relations are small: best outer loop
		case shares:
			return 4
		case len(bound) == 0:
			return 5
		default:
			return 6 // would form a cross product; last resort
		}
	}

	for len(remaining) > 0 {
		best, bestRank := -1, int(^uint(0)>>1)
		for i, p := range remaining {
			if rk := rank(p.lit); rk >= 0 && rk < bestRank {
				best, bestRank = i, rk
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("eval: rule %q is unsafe: no evaluable literal order", r)
		}
		l, oldMode := remaining[best].lit, remaining[best].old
		remaining = append(remaining[:best], remaining[best+1:]...)

		switch {
		case l.Builtin != nil:
			b := l.Builtin
			st := step{kind: stepBuiltin, neg: l.Neg, op: b.Op}
			st.left = termSlot(vi, b.L)
			st.right = termSlot(vi, b.R)
			if !l.Neg && b.Op == datalog.OpEq {
				lb := !b.L.IsVar() || bound[b.L.Var]
				rb := !b.R.IsVar() || bound[b.R.Var]
				switch {
				case !lb && rb:
					st.bindLt = true
					bound[b.L.Var] = true
				case lb && !rb:
					st.bindRt = true
					bound[b.R.Var] = true
				}
			}
			steps = append(steps, st)
		case l.Neg:
			st := step{kind: stepNegAtom, pred: l.Atom.Pred, old: oldMode}
			full := true
			for _, t := range l.Atom.Args {
				st.args = append(st.args, termSlot(vi, t))
				if t.IsAnon() {
					full = false
				}
			}
			if full {
				st.fullKey = true
			} else {
				for i, t := range l.Atom.Args {
					if !t.IsAnon() {
						st.keyPos = append(st.keyPos, i)
					}
				}
			}
			steps = append(steps, st)
		default:
			st := step{kind: stepScan, pred: l.Atom.Pred, old: oldMode}
			hasBoundVar := false
			for i, t := range l.Atom.Args {
				slot := termSlot(vi, t)
				st.args = append(st.args, slot)
				if t.IsConst() || (t.IsVar() && bound[t.Var]) {
					st.keyPos = append(st.keyPos, i)
				}
				if t.IsVar() && bound[t.Var] {
					hasBoundVar = true
				}
			}
			switch {
			// Every position bound: the probe is a membership test on the
			// relation's own hash set, with no table or index to build.
			case len(st.keyPos) == len(st.args):
				st.fullKey = true
				st.keyPos = nil
			// A probe key made only of constants (e.g. the outer scan of
			// tasks(T,N,U,0)) would build a maintained index on a
			// low-selectivity column whose huge buckets make later
			// Insert/Delete maintenance linear. Scan and filter instead —
			// same asymptotic cost for the query itself.
			case !hasBoundVar:
				st.keyPos = nil
			}
			for _, t := range l.Atom.Args {
				if t.IsVar() {
					bound[t.Var] = true
				}
			}
			steps = append(steps, st)
		}
	}
	return steps, nil
}

// --- rule execution ---------------------------------------------------

// env is the runtime variable binding state, plus per-step scratch: probe
// keys (or full negation tuples) and newly-bound variable lists, reused
// across probes instead of allocated per tuple.
type env struct {
	vals    []value.Value
	set     []bool
	scratch []value.Tuple
	newly   [][]int
}

// newEnvFor builds a runtime environment (bindings plus per-step scratch)
// for any compiled step sequence — full rule plans and delta plans alike.
func newEnvFor(steps []step, nvars int) *env {
	en := &env{
		vals:    make([]value.Value, nvars),
		set:     make([]bool, nvars),
		scratch: make([]value.Tuple, len(steps)),
		newly:   make([][]int, len(steps)),
	}
	for i := range steps {
		st := &steps[i]
		switch {
		case st.kind == stepBuiltin:
		case st.fullKey:
			en.scratch[i] = make(value.Tuple, len(st.args))
		default:
			en.scratch[i] = make(value.Tuple, len(st.keyPos))
			if st.kind == stepScan {
				en.newly[i] = make([]int, 0, len(st.args))
			}
		}
	}
	return en
}

func (e *env) get(s argSlot) value.Value {
	if s.isVar {
		return e.vals[s.v]
	}
	return s.c
}

// fullTuple fills full-key step i's scratch with its bound arguments: the
// tuple whose membership the step tests.
func (e *env) fullTuple(i int, st *step) value.Tuple {
	t := e.scratch[i]
	for j, s := range st.args {
		t[j] = e.get(s)
	}
	return t
}

// runCtx resolves a plan's relation reads and index probes. In lazy mode
// (prepared false; constraint plans, run by Violations) it goes through the
// Database at the slots ec resolved, building maintained indexes on
// demand. In prepared mode
// (prepareStream, every Eval and counted-IVM initialization) each step's
// relation and probe structure was resolved up front into res. A keyed
// step probes, in order of preference, its ephemeral join/exist table, its
// resolved maintained index, or the Database lazily. Each plan owns one
// runCtx; a run leaves it holding no database, relation or table.
type runCtx struct {
	db       *Database
	ec       *evalCtx // the evaluator's context: step.slot → database slot
	prepared bool
	res      []stepRes // per step; all zero outside a prepared run
}

// stepRes is one step's resolution for a prepared run.
type stepRes struct {
	rel *value.Relation
	ix  *hashIndex  // keyed step resolved to a maintained index
	tab *joinTable  // ephemeral full join table
	ext *existTable // ephemeral distinct-key table (negation)
}

// release drops everything a run resolved, so no relation or table
// outlives it.
func (rc *runCtx) release() {
	rc.db, rc.ec = nil, nil
	rc.prepared = false
	clear(rc.res)
}

// relAt returns the relation read by step i.
func (rc *runCtx) relAt(i int, st *step) *value.Relation {
	if rc.prepared {
		return rc.res[i].rel
	}
	return rc.ec.rel(rc.db, st.slot)
}

// lookupAt probes the resolved index (or, lazily, the database) of keyed
// step i, returning the matching tuples. Ephemeral join tables are probed
// through a value-type cursor instead, so the per-outer-tuple probe stays
// allocation-free.
func (rc *runCtx) lookupAt(i int, st *step, key value.Tuple) []value.Tuple {
	if ix := rc.res[i].ix; ix != nil {
		return ix.lookup(key)
	}
	return rc.db.indexAt(rc.ec.resolve(rc.db, st.slot), st.keyPos).lookup(key)
}

// hasMatchAt reports whether keyed step i has any tuple matching key — the
// existence probe negated atoms need.
func (rc *runCtx) hasMatchAt(i int, st *step, key value.Tuple) bool {
	if et := rc.res[i].ext; et != nil {
		return et.has(key)
	}
	return len(rc.lookupAt(i, st, key)) > 0
}

// run executes the plan through rc, its own run context, calling emit for
// every derived head tuple; emit returning false stops the evaluation
// early. rc is released on return.
func (cr *compiledRule) run(rc *runCtx, emit func(value.Tuple) bool) error {
	en := cr.en
	// exec unsets every binding on the way out, but re-zero defensively so
	// one run can never leak bindings into the next.
	for i := range en.set {
		en.set[i] = false
	}
	_, err := cr.exec(rc, en, 0, emit)
	rc.release()
	return err
}

// exec runs steps[i:]; it returns false to request early termination.
func (cr *compiledRule) exec(rc *runCtx, en *env, i int, emit func(value.Tuple) bool) (bool, error) {
	if i == len(cr.steps) {
		if cr.head == nil {
			return emit(nil), nil
		}
		t := make(value.Tuple, len(cr.head))
		for j, s := range cr.head {
			t[j] = en.get(s)
		}
		return emit(t), nil
	}
	st := &cr.steps[i]
	switch st.kind {
	case stepBuiltin:
		switch {
		case st.bindLt:
			en.vals[st.left.v] = en.get(st.right)
			en.set[st.left.v] = true
			cont, err := cr.exec(rc, en, i+1, emit)
			en.set[st.left.v] = false
			return cont, err
		case st.bindRt:
			en.vals[st.right.v] = en.get(st.left)
			en.set[st.right.v] = true
			cont, err := cr.exec(rc, en, i+1, emit)
			en.set[st.right.v] = false
			return cont, err
		default:
			ok := st.op.Eval(en.get(st.left), en.get(st.right))
			if st.neg {
				ok = !ok
			}
			if !ok {
				return true, nil
			}
			return cr.exec(rc, en, i+1, emit)
		}

	case stepNegAtom:
		rel := rc.relAt(i, st)
		if rel == nil {
			return cr.exec(rc, en, i+1, emit)
		}
		if st.fullKey {
			if rel.Contains(en.fullTuple(i, st)) {
				return true, nil
			}
			return cr.exec(rc, en, i+1, emit)
		}
		key := en.scratch[i]
		for j, p := range st.keyPos {
			key[j] = en.get(st.args[p])
		}
		if rc.hasMatchAt(i, st, key) {
			return true, nil
		}
		return cr.exec(rc, en, i+1, emit)

	default: // stepScan
		rel := rc.relAt(i, st)
		if rel == nil {
			return true, nil
		}
		if st.fullKey {
			if !rel.Contains(en.fullTuple(i, st)) {
				return true, nil
			}
			return cr.exec(rc, en, i+1, emit)
		}
		tryTuple := func(t value.Tuple) (bool, error) {
			newly := en.newly[i][:0]
			ok := true
			for j, s := range st.args {
				switch {
				case s.anon:
				case s.isVar:
					if en.set[s.v] {
						if !en.vals[s.v].Equal(t[j]) {
							ok = false
						}
					} else {
						en.vals[s.v] = t[j]
						en.set[s.v] = true
						newly = append(newly, s.v)
					}
				default:
					if !s.c.Equal(t[j]) {
						ok = false
					}
				}
				if !ok {
					break
				}
			}
			var cont = true
			var err error
			if ok {
				cont, err = cr.exec(rc, en, i+1, emit)
			}
			for _, v := range newly {
				en.set[v] = false
			}
			return cont, err
		}

		if len(st.keyPos) == 0 {
			var cont = true
			var err error
			rel.EachUntil(func(t value.Tuple) bool {
				cont, err = tryTuple(t)
				return err == nil && cont
			})
			return cont, err
		}
		key := en.scratch[i]
		for j, p := range st.keyPos {
			key[j] = en.get(st.args[p])
		}
		if jt := rc.res[i].tab; jt != nil {
			for c := jt.cursor(key); ; {
				t, ok := c.next()
				if !ok {
					break
				}
				cont, err := tryTuple(t)
				if err != nil || !cont {
					return cont, err
				}
			}
			return true, nil
		}
		for _, t := range rc.lookupAt(i, st, key) {
			cont, err := tryTuple(t)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
}
