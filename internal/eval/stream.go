// Full evaluation: every Eval, EvalQuery and counted-IVM initialization
// runs each rule as a lazy pipeline that streams its largest input and
// builds only small, ephemeral probe tables, instead of registering
// maintained hash indexes on every probed relation. Three pieces cooperate:
//
//   - Driver variants (compileRule): every rule is compiled once per
//     positive body atom, with that atom forced first as the streamed outer
//     scan. At evaluation time pickVariant scores each variant by the tuples
//     it would touch up front: the driver relation it scans plus the
//     relations its keyed steps would have to hash. Relations already
//     covered by a maintained index cost nothing, and so does a probe that
//     binds every position: it tests membership in the relation's own hash
//     set. Ties break on the hashed tuples alone — the
//     symmetric-hash-join build-side choice: stream the big relation, hash
//     the small ones. So a delta-driven ∂put rule whose base atom is fully
//     bound by the delta reads the base through membership tests only.
//
//   - Ephemeral tables (joinTable, existTable): the probe structures built
//     for one evaluation. A joinTable is a compact chained hash table —
//     one flat tuple slice, one int32 chain, one hash→head map — several
//     times smaller than the Database's maintained hashIndex (which keeps a
//     per-distinct-key group with its own slice). An existTable keeps only
//     one representative tuple per distinct key projection: all a negated
//     atom's existence probe needs, O(distinct keys) instead of O(tuples).
//     Neither is registered on the Database; both die with the evaluation.
//
//   - The probe-table cache (evalCtx): tables are keyed by (relation
//     pointer, key positions), so two rules probing the same relation the
//     same way share one table, and a relation replaced by db.Update (new
//     pointer) can never be observed through a stale table. The Evaluator
//     owns one context and empties it when each Eval (or counted-IVM
//     initialization) returns, so no table outlives its evaluation; each
//     plan likewise owns its run context, filled by prepareStream and
//     cleared when the run returns. A warm evaluation therefore allocates
//     only the tables it builds and the tuples and relations it derives.
//
// Maintained indexes that already exist are still used — as pure reads,
// without marking them hot, so a full evaluation never causes the Database
// to build or keep an index. Only stratum outputs (the IDB relations
// installed after each predicate's fixpoint, and the counted-IVM support
// state) are materialized; everything between a scan and a head emit is a
// tuple at a time. Two paths resolve lazily through the Database instead:
// the steady-state EvalDelta plans and the constraint plans Violations
// runs.
package eval

import (
	"birds/internal/datalog"
	"birds/internal/value"
)

// --- ephemeral probe tables -------------------------------------------

// joinTable is a compact chained hash table over one relation's projection
// onto key positions, built for one evaluation and discarded. Layout: all
// tuples in one flat slice, a parallel int32 chain linking tuples that share
// a key hash, and a map from key hash to chain head — value.Relation's own
// storage layout, chained on key projections instead of whole tuples.
// Compared to the maintained hashIndex it has no per-key group structs and
// no per-key tuple slices — a fraction of the heap per tuple — at the cost
// of re-checking the key projection while walking a chain (hash collisions
// are rare). Like value.Relation, a table of at most tableIndexMinLen
// tuples builds no chain index: a probe scans the flat slice, in the same
// (reverse insertion) order a chain would walk.
type joinTable struct {
	positions []int
	heads     map[uint64]int32 // nil for a small table
	next      []int32
	tuples    []value.Tuple
}

// tableIndexMinLen is the largest relation an ephemeral table holds
// without a hash index: up to that size a linear scan beats hashing, as
// for value.Relation's own index threshold.
const tableIndexMinLen = 8

// buildJoinTable hashes every tuple of rel on positions. Chains are int32;
// relations at the 2³¹-tuple scale must use a maintained index instead
// (prepareStream guards this).
func buildJoinTable(rel *value.Relation, positions []int) *joinTable {
	n := rel.Len()
	jt := &joinTable{positions: positions, tuples: make([]value.Tuple, 0, n)}
	if n > tableIndexMinLen {
		jt.heads = make(map[uint64]int32, n)
		jt.next = make([]int32, 0, n)
	}
	rel.Each(func(t value.Tuple) {
		i := int32(len(jt.tuples))
		jt.tuples = append(jt.tuples, t)
		if jt.heads == nil {
			return
		}
		h := value.HashSeed
		for _, p := range positions {
			h = value.HashMix(h, t[p])
		}
		prev, ok := jt.heads[h]
		if !ok {
			prev = -1
		}
		jt.next = append(jt.next, prev)
		jt.heads[h] = i
	})
	return jt
}

// tabCursor walks the chain of tuples matching one probe key. It is a value
// type so a per-outer-tuple probe allocates nothing.
type tabCursor struct {
	jt  *joinTable
	i   int32
	key value.Tuple
}

// cursor starts a probe for key (the projection values, in positions order).
func (jt *joinTable) cursor(key value.Tuple) tabCursor {
	if jt.heads == nil {
		return tabCursor{jt: jt, i: int32(len(jt.tuples)) - 1, key: key}
	}
	h := value.HashSeed
	for _, v := range key {
		h = value.HashMix(h, v)
	}
	i, ok := jt.heads[h]
	if !ok {
		i = -1
	}
	return tabCursor{jt: jt, i: i, key: key}
}

// next returns the next tuple whose projection equals the probe key.
func (c *tabCursor) next() (value.Tuple, bool) {
	for c.i >= 0 {
		t := c.jt.tuples[c.i]
		if c.jt.heads != nil {
			c.i = c.jt.next[c.i]
		} else {
			c.i--
		}
		if projMatches(t, c.jt.positions, c.key) {
			return t, true
		}
	}
	return nil, false
}

// existTable answers existence probes (negated atoms) with one
// representative tuple per distinct key projection — O(distinct keys)
// heap, however many tuples share a key. A table built from at most
// tableIndexMinLen tuples keeps its representatives in one slice and
// probes by scanning it.
type existTable struct {
	positions []int
	reps      []value.Tuple            // small table: one representative per distinct projection
	buckets   map[uint64][]value.Tuple // otherwise, the same, bucketed by projection hash
}

func buildExistTable(rel *value.Relation, positions []int) *existTable {
	et := &existTable{positions: positions}
	if rel.Len() <= tableIndexMinLen {
		rel.Each(func(t value.Tuple) {
			if !hasProj(et.reps, t, positions) {
				et.reps = append(et.reps, t)
			}
		})
		return et
	}
	et.buckets = make(map[uint64][]value.Tuple)
	rel.Each(func(t value.Tuple) {
		h := value.HashSeed
		for _, p := range positions {
			h = value.HashMix(h, t[p])
		}
		if reps := et.buckets[h]; !hasProj(reps, t, positions) {
			et.buckets[h] = append(reps, t)
		}
	})
	return et
}

// hasProj reports whether some tuple of reps agrees with t on positions.
func hasProj(reps []value.Tuple, t value.Tuple, positions []int) bool {
	for _, r := range reps {
		if projEqual(r, t, positions) {
			return true
		}
	}
	return false
}

// has reports whether any tuple's projection equals key.
func (et *existTable) has(key value.Tuple) bool {
	reps := et.reps
	if et.buckets != nil {
		h := value.HashSeed
		for _, v := range key {
			h = value.HashMix(h, v)
		}
		reps = et.buckets[h]
	}
	for _, r := range reps {
		if projMatches(r, et.positions, key) {
			return true
		}
	}
	return false
}

// --- per-evaluation context -------------------------------------------

// tabKey identifies an ephemeral table: the relation (by pointer, so a
// relation replaced via db.Update can never hit a stale entry) and the key
// positions rendered as a mask (step.mask, computed at compile time).
type tabKey struct {
	rel  *value.Relation
	mask string
}

// evalCtx carries the ephemeral probe tables of one full evaluation.
// Tables are shared across the rules of that evaluation; reset drops them
// when it returns, keeping the maps for the next evaluation. It also holds
// the relation and maintained indexes of every predicate the plans read,
// one program-local slot per predicate (step.slot, assignSlots): bind
// resolves the EDB slots when the evaluation starts, and refresh resolves
// an IDB slot once the evaluation has installed the predicate — always
// before any rule reads it, since rules run in topological order.
//
// Across evaluations it keeps where each program-local slot lives in the
// database it last ran over (dbID, at): a database never removes a slot,
// so on a warm database resolving a predicate is a slice read, not a hash
// of its symbol. The cache holds the database's id and ints only, never a
// pointer, so no database or relation outlives an evaluation.
type evalCtx struct {
	tables map[tabKey]*joinTable
	exists map[tabKey]*existTable
	syms   []datalog.PredSym // slot → predicate
	nidb   int               // slots [0, nidb) are the IDB predicates
	rels   []*value.Relation
	ixs    [][]*hashIndex
	dbID   uint64   // id of the database that at describes; 0 before the first
	at     []dbSlot // slot → its predicate's slot in that database
}

// dbSlot is where a program-local slot's predicate lives in the database
// evalCtx.dbID names: slot is its database slot, or -1 if the database had
// none when it held seen slots. A database only gains slots, so an absent
// predicate is looked up again only once the database holds more.
type dbSlot struct {
	slot, seen int
}

func newEvalCtx(syms []datalog.PredSym, nidb int) evalCtx {
	return evalCtx{
		tables: make(map[tabKey]*joinTable),
		exists: make(map[tabKey]*existTable),
		syms:   syms,
		nidb:   nidb,
		rels:   make([]*value.Relation, len(syms)),
		ixs:    make([][]*hashIndex, len(syms)),
		at:     make([]dbSlot, len(syms)),
	}
}

// resolve returns the database slot of program-local slot k in db, or -1
// when db has no slot for its predicate. It never creates a slot.
func (ec *evalCtx) resolve(db *Database, k int) int {
	if ec.dbID != db.id {
		ec.dbID = db.id
		for i := range ec.at {
			ec.at[i] = dbSlot{slot: -1, seen: -1}
		}
	}
	a := &ec.at[k]
	if a.slot < 0 && a.seen != len(db.preds) {
		a.slot, a.seen = db.slotOf(ec.syms[k]), len(db.preds)
	}
	return a.slot
}

// slotFor is resolve, creating the slot when db has none; the evaluation
// installing the predicate has exclusive use of db.
func (ec *evalCtx) slotFor(db *Database, k int) int {
	s := ec.resolve(db, k)
	if s < 0 {
		s = db.slot(ec.syms[k])
		ec.at[k].slot = s
	}
	return s
}

// rel returns db's relation for program-local slot k, or nil.
func (ec *evalCtx) rel(db *Database, k int) *value.Relation {
	if s := ec.resolve(db, k); s >= 0 {
		return db.rels[s]
	}
	return nil
}

// bind resolves the EDB slots against db.
func (ec *evalCtx) bind(db *Database) {
	for k := ec.nidb; k < len(ec.syms); k++ {
		ec.refresh(db, k)
	}
}

// refresh re-resolves slot k after db installed its relation or changed
// its indexes.
func (ec *evalCtx) refresh(db *Database, k int) {
	if s := ec.resolve(db, k); s >= 0 {
		ec.rels[k], ec.ixs[k] = db.rels[s], db.indexes[s]
	} else {
		ec.rels[k], ec.ixs[k] = nil, nil
	}
}

// existingIndex returns the maintained index on step st's relation keyed
// exactly on its key positions, or nil — reused as a pure read, never built
// and never marked hot.
func (ec *evalCtx) existingIndex(st *step) *hashIndex {
	return findIndex(ec.ixs[st.slot], st.keyPos)
}

// reset empties the cache and the slots, releasing every table and
// relation they hold; the database slots it resolved stay cached.
func (ec *evalCtx) reset() {
	clear(ec.tables)
	clear(ec.exists)
	clear(ec.rels)
	clear(ec.ixs)
}

func (ec *evalCtx) joinTab(rel *value.Relation, st *step) *joinTable {
	k := tabKey{rel: rel, mask: st.mask}
	if jt, ok := ec.tables[k]; ok {
		return jt
	}
	jt := buildJoinTable(rel, st.keyPos)
	ec.tables[k] = jt
	return jt
}

func (ec *evalCtx) existTab(rel *value.Relation, st *step) *existTable {
	k := tabKey{rel: rel, mask: st.mask}
	if et, ok := ec.exists[k]; ok {
		return et
	}
	et := buildExistTable(rel, st.keyPos)
	ec.exists[k] = et
	return et
}

// --- variant choice and preparation -----------------------------------

// maxJoinTableLen is the largest relation an ephemeral joinTable will hold
// (int32 chain links); beyond it prepareStream falls back to a maintained
// index. Unreachable for in-memory relations in practice.
const maxJoinTableLen = 1<<31 - 1

// streamCost scores a driver variant for streaming execution. hashed is
// the number of tuples its keyed steps would have to hash into ephemeral
// tables; total adds the tuples of the driver relation it scans. A keyed
// step whose relation already has a maintained index on exactly its key
// positions costs nothing (the index is reused as a pure read), and a
// full-key step (positive or negated) tests membership in the relation
// itself and costs nothing. The score deliberately ignores the evalCtx
// table cache so that variant choice depends only on the database state,
// not on the order rules happened to run in.
func streamCost(ec *evalCtx, plan *compiledRule) (total, hashed int) {
	for i := range plan.steps {
		st := &plan.steps[i]
		if st.kind == stepBuiltin || st.fullKey {
			continue
		}
		rel := ec.rels[st.slot]
		if rel == nil {
			continue
		}
		switch {
		case len(st.keyPos) == 0:
			if i == 0 { // the driver scan
				total += rel.Len()
			}
		case ec.existingIndex(st) == nil:
			hashed += rel.Len()
		}
	}
	return total + hashed, hashed
}

// pickVariant returns the cheapest driver variant of the rule for the
// current database: least scanned plus hashed tuples, ties broken on the
// hashed tuples alone (a 2-way join scores the same driven from either
// side; hashing the smaller side keeps the ephemeral table small), then
// toward the earliest body atom, so the choice is deterministic.
func (rp *rulePlans) pickVariant(ec *evalCtx) *compiledRule {
	best := rp.variants[0]
	bestTotal, bestHashed := streamCost(ec, best)
	for _, v := range rp.variants[1:] {
		if t, h := streamCost(ec, v); t < bestTotal || (t == bestTotal && h < bestHashed) {
			best, bestTotal, bestHashed = v, t, h
		}
	}
	return best
}

// prepareStream resolves the plan's relations and probe structures for one
// streaming run into the plan's own run context: maintained indexes that
// already exist are reused as pure reads (never built, never marked hot);
// every other keyed step gets an ephemeral table from the evaluation's
// cache, so the run builds no maintained index.
func (cr *compiledRule) prepareStream(db *Database, ec *evalCtx) *runCtx {
	rc := &cr.rc
	rc.db, rc.ec = db, ec
	rc.prepared = true
	for i := range cr.steps {
		st := &cr.steps[i]
		if st.kind == stepBuiltin {
			continue
		}
		r := &rc.res[i]
		rel := ec.rels[st.slot]
		r.rel = rel
		// A full-key step tests membership in rel itself. A negation over
		// anonymous arguments only (not r(_, _)) has no key positions but
		// still probes, so it gets an exist table too rather than a
		// maintained index built on demand.
		if rel == nil || st.fullKey || (len(st.keyPos) == 0 && st.kind != stepNegAtom) {
			continue
		}
		if ix := ec.existingIndex(st); ix != nil {
			r.ix = ix
			continue
		}
		switch {
		case st.kind == stepNegAtom:
			r.ext = ec.existTab(rel, st)
		case rel.Len() > maxJoinTableLen:
			r.ix = db.indexAt(ec.resolve(db, st.slot), st.keyPos)
			ec.refresh(db, st.slot)
		default:
			r.tab = ec.joinTab(rel, st)
		}
	}
	return rc
}

// run executes the rule's cheapest variant over db with ephemeral probe
// tables, emitting every derived head tuple.
func (rp *rulePlans) run(db *Database, ec *evalCtx, emit func(value.Tuple) bool) error {
	v := rp.pickVariant(ec)
	return v.run(v.prepareStream(db, ec), emit)
}
