// Counting-based incremental view maintenance (IVM) for the compiled
// evaluator. EvalDelta keeps every IDB relation materialized together with
// per-tuple support counts (the number of derivations currently producing
// the tuple) and, given net insert/delete deltas on the EDB relations,
// propagates ±Δ through the rule DAG in topological order instead of
// recomputing any relation from scratch.
//
// For one rule H :- L1, ..., Ln the change of the derivation multiset under
// a database change old → new telescopes into the classic delta expansion
//
//	Δ(L1 ⋈ … ⋈ Ln) = Σ_i  L1ⁿᵉʷ ⋈ … ⋈ L_{i-1}ⁿᵉʷ ⋈ ΔLi ⋈ L_{i+1}ᵒˡᵈ ⋈ … ⋈ Lnᵒˡᵈ
//
// which is exact for the support counts: every derivation that exists after
// the change but not before is produced exactly once with sign +1, and every
// derivation that disappeared exactly once with sign −1. A head tuple enters
// its relation when its support crosses 0 → positive and leaves when it
// returns to 0, so negation is exact per stratum (a tuple "dies" only when
// its last derivation is gone) — counting IVM is exact for the nonrecursive
// stratified NR-Datalog¬ class this evaluator accepts, no over-deletion /
// re-derivation pass needed.
//
// For a positive literal, ΔLi ranges over the relation's net tuple delta.
// For a negated literal not q(ā), the literal is a pure filter (safety
// guarantees its variables are bound elsewhere), and ΔLi ranges over the
// projections of q's delta tuples onto the literal's bound positions whose
// truth value actually flipped: a projection key flips to true when the last
// matching q tuple disappeared, and to false when the first one appeared.
// Old versions of relations are never snapshotted: a literal in old mode
// reads the current (new) relation adjusted through the delta — tuples of
// Δ⁺ are skipped and tuples of Δ⁻ are added back — so one propagation step
// costs O(|Δ| · joins), never O(|DB|).
package eval

import (
	"birds/internal/datalog"
	"birds/internal/value"
)

// Delta is the net set-level change of one relation across an update:
// Ins holds tuples that are present now and were absent before, Del tuples
// that were present before and are absent now. The two sets are disjoint,
// and the relation the delta describes is already at its new state when the
// delta is handed to EvalDelta.
type Delta struct {
	Ins, Del *value.Relation
}

// NewDelta returns an empty delta of the given arity.
func NewDelta(arity int) Delta {
	return Delta{Ins: value.NewRelation(arity), Del: value.NewRelation(arity)}
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return (d.Ins == nil || d.Ins.Empty()) && (d.Del == nil || d.Del.Empty())
}

// ivmState is the maintenance state EvalDelta keeps between calls: the
// database whose IDB relations the support counts describe. The state is
// valid only while every change to db's EDB relations flows through
// EvalDelta; a full evaluation that actually changes an IDB relation drops
// it (a no-op evaluation leaves the materialized state — and therefore the
// counts describing it — intact).
type ivmState struct {
	db     *Database
	counts map[datalog.PredSym]*value.CountedRelation
}

// InvalidateIVM drops the maintenance state; the next EvalDelta
// re-initializes the support counts with one full counted evaluation.
// Callers use it when db's relations changed behind the evaluator's back.
func (e *Evaluator) InvalidateIVM() { e.ivm = nil }

// IVMReady reports whether EvalDelta has maintenance state for db, i.e.
// whether the next EvalDelta call will propagate in O(|Δ|) instead of
// re-initializing.
func (e *Evaluator) IVMReady(db *Database) bool { return e.ivm != nil && e.ivm.db == db }

// EvalDelta incrementally maintains every IDB relation of db under the
// given net EDB deltas. db must already be at its new EDB state (deltas
// applied); edb maps each changed EDB predicate to its net delta. The IDB
// relations of db are updated in place (indexes maintained incrementally),
// and the returned map holds the net delta of every IDB relation that
// changed.
//
// The first call on a database (or the first after a full Eval invalidated
// the state) runs one counted full evaluation — O(|DB|) — to establish the
// support counts; every later call costs O(|Δ|) join work. On error the
// maintenance state is dropped and db's IDB relations must be considered
// stale (re-establish them with Eval).
//
// Like Eval, EvalDelta must not be called concurrently with any other
// method of the evaluator or with reads of db.
func (e *Evaluator) EvalDelta(db *Database, edb map[datalog.PredSym]Delta) (map[datalog.PredSym]Delta, error) {
	if !e.IVMReady(db) {
		out := make(map[datalog.PredSym]Delta)
		if err := e.initIVM(db, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	if e.deltaRules == nil {
		if err := e.compileDeltaRules(); err != nil {
			return nil, err
		}
	}
	changed := make(map[datalog.PredSym]Delta, len(edb))
	for p, d := range edb {
		if !d.Empty() {
			changed[p] = d
		}
	}
	out := make(map[datalog.PredSym]Delta)
	if len(changed) == 0 {
		return out, nil
	}
	dc := &deltaCtx{db: db, changed: changed}
	// Topological order: a predicate's rules only read predicates whose
	// deltas are already applied and recorded in dc.changed.
	for _, sym := range e.order {
		if err := e.evalDeltaPred(dc, sym, out); err != nil {
			e.ivm = nil // counts partially adjusted: state is unusable
			return nil, err
		}
	}
	return out, nil
}

// evalDeltaPred runs every applicable delta rule of one predicate, adjusts
// its support counts, and installs the resulting net delta: the store is
// adjusted in place (indexes maintained) and the delta joins the changed
// set so later predicates propagate it further. Applying after the
// predicate's own rules ran (its rules never read it — the program is
// nonrecursive) keeps the old versions reconstructible through recorded
// deltas.
func (e *Evaluator) evalDeltaPred(dc *deltaCtx, sym datalog.PredSym, out map[datalog.PredSym]Delta) error {
	cnt := e.ivm.counts[sym]
	var ins, del *value.Relation
	emit := func(t value.Tuple, sign int) {
		appeared, vanished := cnt.Adjust(t, sign)
		if appeared {
			// A tuple that vanished earlier in this predicate's pass and
			// reappears now is a net no-op, and vice versa.
			if !del.Remove(t) {
				ins.Add(t)
			}
		}
		if vanished {
			if !ins.Remove(t) {
				del.Add(t)
			}
		}
	}
	for _, dr := range e.deltaRules[sym] {
		d, ok := dc.changed[dr.driver]
		if !ok {
			continue
		}
		if ins == nil {
			ins = value.NewRelation(e.arities[sym])
			del = value.NewRelation(e.arities[sym])
		}
		if err := dr.run(dc, d, emit); err != nil {
			return err
		}
	}
	if ins == nil || (ins.Empty() && del.Empty()) {
		return nil
	}
	del.Each(func(t value.Tuple) { dc.db.Delete(sym, t) })
	ins.Each(func(t value.Tuple) { dc.db.Insert(sym, t) })
	nd := Delta{Ins: ins, Del: del}
	dc.changed[sym] = nd
	out[sym] = nd
	return nil
}

// InitIVM (re)establishes the support counts with one full counted
// evaluation over db's current EDB state and installs the resulting IDB
// relations — a full materialization that leaves the evaluator ready for
// O(|Δ|) EvalDelta calls. Unlike a first EvalDelta call it computes no
// deltas against what db held before.
func (e *Evaluator) InitIVM(db *Database) error { return e.initIVM(db, nil) }

// initIVM establishes the support counts with one full counted evaluation
// over db's current EDB state and installs the resulting IDB relations,
// recording in out, when non-nil, the net delta of every IDB relation
// against what db held before — the one O(|DB|) step; all subsequent
// EvalDelta calls propagate deltas. Any earlier state is dropped first,
// so an error leaves none.
func (e *Evaluator) initIVM(db *Database, out map[datalog.PredSym]Delta) error {
	e.ivm = nil
	e.ec.bind(db)
	defer e.ec.reset()
	counts := make(map[datalog.PredSym]*value.CountedRelation, len(e.order))
	for i := range e.plan {
		p := &e.plan[i]
		cnt := value.NewCounted(p.arity)
		for _, rp := range p.rules {
			if err := rp.run(db, &e.ec, func(t value.Tuple) bool {
				cnt.Adjust(t, 1)
				return true
			}); err != nil {
				return err
			}
		}
		e.installCounted(db, i, cnt.Relation(), out)
		e.ec.refresh(db, i)
		counts[p.sym] = cnt
	}
	e.ivm = &ivmState{db: db, counts: counts}
	return nil
}

// installCounted replaces IDB predicate i's relation with its freshly
// counted materialization, recording in out, when non-nil, the net delta
// against what db held before.
func (e *Evaluator) installCounted(db *Database, i int, rel *value.Relation, out map[datalog.PredSym]Delta) {
	sym := e.plan[i].sym
	old := e.ec.rel(db, i)
	db.updateAt(e.ec.slotFor(db, i), rel)
	if out == nil {
		return
	}
	if old == nil || old.Empty() {
		// Fresh install — the delta's insert side is the whole relation. A
		// COW snapshot shares its storage instead of copying O(|rel|)
		// tuples, which at cold start (every IDB relation new) would
		// double the init's materialized footprint.
		if !rel.Empty() {
			out[sym] = Delta{Ins: rel.Snapshot(), Del: value.NewRelation(e.arities[sym])}
		}
		return
	}
	d := Delta{Ins: rel.Minus(old), Del: old.Minus(rel)}
	if !d.Empty() {
		out[sym] = d
	}
}

// SupportCount reports the maintained support count of tuple t in relation
// sym (0 when no state is held) — diagnostics and tests only.
func (e *Evaluator) SupportCount(sym datalog.PredSym, t value.Tuple) int {
	if e.ivm == nil {
		return 0
	}
	if c := e.ivm.counts[sym]; c != nil {
		return c.Count(t)
	}
	return 0
}

// --- delta plan compilation ----------------------------------------------

// deltaRule is the compiled plan of one (rule, driver literal) pair of the
// delta expansion: the driver literal is bound from delta tuples (or flip
// keys, for a negated driver) and the remaining literals — annotated old or
// new by their position relative to the driver in the original body order —
// are joined with the same greedy ordering full plans use.
type deltaRule struct {
	rule   *datalog.Rule
	driver datalog.PredSym // predicate whose delta drives this plan
	neg    bool            // negated driver: delta keys flip the guard
	dargs  []argSlot       // driver literal argument slots
	dkey   []int           // negated driver: non-anonymous arg positions
	nvars  int
	steps  []step
	head   []argSlot
	en     *env
	dnew   []int // scratch: env slots bound by the driver
}

// compileDeltaRules builds the delta plans for every rule: one plan per
// body atom (builtins are static and never drive a delta).
func (e *Evaluator) compileDeltaRules() error {
	e.deltaRules = make(map[datalog.PredSym][]*deltaRule)
	for _, sym := range e.order {
		for _, rp := range e.rules[sym] {
			r := rp.rule
			for di, l := range r.Body {
				if l.Atom == nil {
					continue
				}
				dr, err := compileDeltaRule(r, di)
				if err != nil {
					return err
				}
				e.deltaRules[sym] = append(e.deltaRules[sym], dr)
			}
		}
	}
	return nil
}

// compileDeltaRule compiles the delta plan of rule r driven by body
// literal di (which must be an atom).
func compileDeltaRule(r *datalog.Rule, di int) (*deltaRule, error) {
	drv := r.Body[di]
	vi := &varIndexer{idx: make(map[string]int)}
	dr := &deltaRule{rule: r, driver: drv.Atom.Pred, neg: drv.Neg}

	bound := make(map[string]bool)
	for i, t := range drv.Atom.Args {
		dr.dargs = append(dr.dargs, termSlot(vi, t))
		if drv.Neg && !t.IsAnon() {
			dr.dkey = append(dr.dkey, i)
		}
		if t.IsVar() {
			bound[t.Var] = true
		}
	}

	rem := make([]datalog.Literal, 0, len(r.Body)-1)
	oldOf := make([]bool, 0, len(r.Body)-1)
	for j, l := range r.Body {
		if j == di {
			continue
		}
		rem = append(rem, l)
		oldOf = append(oldOf, j > di)
	}
	steps, err := compileBody(vi, bound, rem, oldOf, r)
	if err != nil {
		return nil, err
	}
	dr.steps = steps
	if r.Head != nil {
		for _, t := range r.Head.Args {
			dr.head = append(dr.head, termSlot(vi, t))
		}
	}
	dr.nvars = len(vi.idx)
	dr.en = newEnvFor(dr.steps, dr.nvars)
	dr.dnew = make([]int, 0, len(dr.dargs))
	return dr, nil
}

// --- delta plan execution ------------------------------------------------

// deltaCtx resolves old- and new-version relation reads during one
// propagation pass. New versions are the database's current relations; old
// versions are reconstructed through the recorded per-predicate deltas —
// skip Δ⁺ tuples, add back Δ⁻ tuples — so no relation is ever snapshotted.
type deltaCtx struct {
	db      *Database
	changed map[datalog.PredSym]Delta
}

// oldEach iterates the old version of p until fn returns false; it reports
// whether the iteration ran to completion.
func (dc *deltaCtx) oldEach(p datalog.PredSym, fn func(value.Tuple) bool) bool {
	rel := dc.db.Rel(p)
	d, ok := dc.changed[p]
	if !ok {
		if rel == nil {
			return true
		}
		return rel.EachUntil(fn)
	}
	if rel != nil {
		if !rel.EachUntil(func(t value.Tuple) bool {
			if d.Ins != nil && d.Ins.Contains(t) {
				return true
			}
			return fn(t)
		}) {
			return false
		}
	}
	if d.Del != nil {
		return d.Del.EachUntil(fn)
	}
	return true
}

// oldProbe iterates the old-version tuples of p matching key on positions
// until fn returns false; it reports whether the iteration completed.
func (dc *deltaCtx) oldProbe(p datalog.PredSym, positions []int, key value.Tuple, fn func(value.Tuple) bool) bool {
	d, ok := dc.changed[p]
	if !ok {
		for _, t := range dc.db.Lookup(p, positions, key) {
			if !fn(t) {
				return false
			}
		}
		return true
	}
	for _, t := range dc.db.Lookup(p, positions, key) {
		if d.Ins != nil && d.Ins.Contains(t) {
			continue
		}
		if !fn(t) {
			return false
		}
	}
	if d.Del != nil {
		return d.Del.EachUntil(func(t value.Tuple) bool {
			if !projMatches(t, positions, key) {
				return true
			}
			return fn(t)
		})
	}
	return true
}

// oldContains reports membership of t in the old version of p.
func (dc *deltaCtx) oldContains(p datalog.PredSym, t value.Tuple) bool {
	d, ok := dc.changed[p]
	if !ok {
		rel := dc.db.Rel(p)
		return rel != nil && rel.Contains(t)
	}
	if d.Del != nil && d.Del.Contains(t) {
		return true
	}
	rel := dc.db.Rel(p)
	return rel != nil && rel.Contains(t) && !(d.Ins != nil && d.Ins.Contains(t))
}

// contains reports membership of t in the version (old or new) of full-key
// step st's relation that the step reads.
func (dc *deltaCtx) contains(st *step, t value.Tuple) bool {
	if st.old {
		return dc.oldContains(st.pred, t)
	}
	rel := dc.db.Rel(st.pred)
	return rel != nil && rel.Contains(t)
}

// oldHasMatch reports whether the old version of p holds any tuple matching
// key on positions.
func (dc *deltaCtx) oldHasMatch(p datalog.PredSym, positions []int, key value.Tuple) bool {
	found := false
	dc.oldProbe(p, positions, key, func(value.Tuple) bool {
		found = true
		return false
	})
	return found
}

// oldEmpty reports whether the old version of p held no tuples at all.
func (dc *deltaCtx) oldEmpty(p datalog.PredSym) bool {
	empty := true
	dc.oldEach(p, func(value.Tuple) bool {
		empty = false
		return false
	})
	return empty
}

// run executes the delta plan for one driver delta, emitting every signed
// head derivation.
func (dr *deltaRule) run(dc *deltaCtx, d Delta, emit func(value.Tuple, int)) error {
	en := dr.en
	for i := range en.set {
		en.set[i] = false
	}
	if !dr.neg {
		if err := dr.runPositive(dc, en, d.Ins, +1, emit); err != nil {
			return err
		}
		return dr.runPositive(dc, en, d.Del, -1, emit)
	}
	return dr.runNegated(dc, en, d, emit)
}

// runPositive drives the plan from the tuples of one signed delta set of a
// positive driver literal.
func (dr *deltaRule) runPositive(dc *deltaCtx, en *env, rel *value.Relation, sign int, emit func(value.Tuple, int)) error {
	if rel == nil || rel.Empty() {
		return nil
	}
	var err error
	rel.EachUntil(func(t value.Tuple) bool {
		err = dr.driveTuple(dc, en, t, sign, emit)
		return err == nil
	})
	return err
}

// driveTuple binds the driver literal against one delta tuple and runs the
// remaining steps with the given sign.
func (dr *deltaRule) driveTuple(dc *deltaCtx, en *env, t value.Tuple, sign int, emit func(value.Tuple, int)) error {
	newly := dr.dnew[:0]
	ok := true
	for j, s := range dr.dargs {
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
	var err error
	if ok {
		err = dr.exec(dc, en, 0, sign, emit)
	}
	for _, v := range newly {
		en.set[v] = false
	}
	return err
}

// runNegated drives the plan from the flipped guard keys of a negated
// driver literal not q(ā): a key (the projection of a q delta tuple onto
// the literal's non-anonymous positions) flips the guard to true when the
// last matching q tuple disappeared, and to false when the first appeared.
// Keys are deduplicated — several delta tuples sharing a projection flip
// the guard once.
func (dr *deltaRule) runNegated(dc *deltaCtx, en *env, d Delta, emit func(value.Tuple, int)) error {
	q := dr.driver
	if len(dr.dkey) == 0 {
		// Fully anonymous guard not q(_,…,_): truth is "q is empty".
		rel := dc.db.Rel(q)
		newEmpty := rel == nil || rel.Empty()
		if d.Del != nil && !d.Del.Empty() && newEmpty {
			return dr.exec(dc, en, 0, +1, emit)
		}
		if d.Ins != nil && !d.Ins.Empty() && dc.oldEmpty(q) {
			return dr.exec(dc, en, 0, -1, emit)
		}
		return nil
	}

	drive := func(deltaSide *value.Relation, sign int) error {
		if deltaSide == nil || deltaSide.Empty() {
			return nil
		}
		seen := value.NewRelation(len(dr.dkey))
		var err error
		deltaSide.EachUntil(func(t value.Tuple) bool {
			key := make(value.Tuple, len(dr.dkey))
			if !dr.negDriverKey(t, key) {
				return true // tuple never matched the literal's pattern
			}
			if !seen.Add(key) {
				return true
			}
			if sign > 0 {
				// q tuples left: flipped to true only if no match remains.
				if len(dc.db.Lookup(q, dr.dkey, key)) > 0 {
					return true
				}
			} else {
				// q tuples arrived: flipped to false only if none matched before.
				if dc.oldHasMatch(q, dr.dkey, key) {
					return true
				}
			}
			err = dr.driveKey(dc, en, key, sign, emit)
			return err == nil
		})
		return err
	}
	if err := drive(d.Del, +1); err != nil {
		return err
	}
	return drive(d.Ins, -1)
}

// negDriverKey projects q-tuple t onto the literal's non-anonymous
// positions into key, reporting whether t is consistent with the literal's
// constants and repeated variables.
func (dr *deltaRule) negDriverKey(t value.Tuple, key value.Tuple) bool {
	for k, pos := range dr.dkey {
		s := dr.dargs[pos]
		if !s.isVar && !s.c.Equal(t[pos]) {
			return false
		}
		key[k] = t[pos]
	}
	for k, pos := range dr.dkey {
		s := dr.dargs[pos]
		if !s.isVar {
			continue
		}
		for k2 := k + 1; k2 < len(dr.dkey); k2++ {
			s2 := dr.dargs[dr.dkey[k2]]
			if s2.isVar && s2.v == s.v && !key[k].Equal(key[k2]) {
				return false
			}
		}
	}
	return true
}

// driveKey binds the negated driver's variables from a flipped key and runs
// the remaining steps.
func (dr *deltaRule) driveKey(dc *deltaCtx, en *env, key value.Tuple, sign int, emit func(value.Tuple, int)) error {
	newly := dr.dnew[:0]
	for k, pos := range dr.dkey {
		s := dr.dargs[pos]
		if !s.isVar || en.set[s.v] {
			continue
		}
		en.vals[s.v] = key[k]
		en.set[s.v] = true
		newly = append(newly, s.v)
	}
	err := dr.exec(dc, en, 0, sign, emit)
	for _, v := range newly {
		en.set[v] = false
	}
	return err
}

// exec runs steps[i:] over old/new relation versions per step annotation,
// emitting every signed head derivation. It mirrors compiledRule.exec minus
// early termination (delta propagation always enumerates everything).
func (dr *deltaRule) exec(dc *deltaCtx, en *env, i, sign int, emit func(value.Tuple, int)) error {
	if i == len(dr.steps) {
		t := make(value.Tuple, len(dr.head))
		for j, s := range dr.head {
			t[j] = en.get(s)
		}
		emit(t, sign)
		return nil
	}
	st := &dr.steps[i]
	switch st.kind {
	case stepBuiltin:
		switch {
		case st.bindLt:
			en.vals[st.left.v] = en.get(st.right)
			en.set[st.left.v] = true
			err := dr.exec(dc, en, i+1, sign, emit)
			en.set[st.left.v] = false
			return err
		case st.bindRt:
			en.vals[st.right.v] = en.get(st.left)
			en.set[st.right.v] = true
			err := dr.exec(dc, en, i+1, sign, emit)
			en.set[st.right.v] = false
			return err
		default:
			ok := st.op.Eval(en.get(st.left), en.get(st.right))
			if st.neg {
				ok = !ok
			}
			if !ok {
				return nil
			}
			return dr.exec(dc, en, i+1, sign, emit)
		}

	case stepNegAtom:
		if st.fullKey {
			if dc.contains(st, en.fullTuple(i, st)) {
				return nil
			}
			return dr.exec(dc, en, i+1, sign, emit)
		}
		key := en.scratch[i]
		for j, p := range st.keyPos {
			key[j] = en.get(st.args[p])
		}
		var present bool
		if st.old {
			present = dc.oldHasMatch(st.pred, st.keyPos, key)
		} else {
			present = len(dc.db.Lookup(st.pred, st.keyPos, key)) > 0
		}
		if present {
			return nil
		}
		return dr.exec(dc, en, i+1, sign, emit)

	default: // stepScan
		if st.fullKey {
			if !dc.contains(st, en.fullTuple(i, st)) {
				return nil
			}
			return dr.exec(dc, en, i+1, sign, emit)
		}
		tryTuple := func(t value.Tuple) error {
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
			var err error
			if ok {
				err = dr.exec(dc, en, i+1, sign, emit)
			}
			for _, v := range newly {
				en.set[v] = false
			}
			return err
		}

		if len(st.keyPos) == 0 {
			var err error
			iter := func(t value.Tuple) bool {
				err = tryTuple(t)
				return err == nil
			}
			if st.old {
				dc.oldEach(st.pred, iter)
			} else if rel := dc.db.Rel(st.pred); rel != nil {
				rel.EachUntil(iter)
			}
			return err
		}
		key := en.scratch[i]
		for j, p := range st.keyPos {
			key[j] = en.get(st.args[p])
		}
		if st.old {
			var err error
			dc.oldProbe(st.pred, st.keyPos, key, func(t value.Tuple) bool {
				err = tryTuple(t)
				return err == nil
			})
			return err
		}
		for _, t := range dc.db.Lookup(st.pred, st.keyPos, key) {
			if err := tryTuple(t); err != nil {
				return err
			}
		}
		return nil
	}
}
