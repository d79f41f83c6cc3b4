package engine

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
	"birds/internal/wal"
)

// StmtKind discriminates DML statements.
type StmtKind uint8

// DML statement kinds.
const (
	StmtInsert StmtKind = iota
	StmtDelete
	StmtUpdate
)

// Condition is one WHERE conjunct: column op literal.
type Condition struct {
	Col string
	Op  datalog.CmpOp
	Val value.Value
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Col string
	Val value.Value
}

// Statement is a DML statement against a table or view.
//
// Row is stored by the engine by reference on execution (relations do not
// defensively copy tuples); it must not be mutated after the statement is
// passed to Exec.
type Statement struct {
	Kind   StmtKind
	Target string
	Row    value.Tuple  // INSERT
	Where  []Condition  // DELETE / UPDATE
	Set    []Assignment // UPDATE
}

// Insert builds an INSERT statement. The row values are captured in a
// fresh tuple at the call site when passed as literals; a caller expanding
// an existing slice (Insert(t, row...)) hands over ownership and must not
// mutate that slice afterwards.
func Insert(target string, row ...value.Value) Statement {
	return Statement{Kind: StmtInsert, Target: target, Row: value.Tuple(row)}
}

// Delete builds a DELETE statement.
func Delete(target string, where ...Condition) Statement {
	return Statement{Kind: StmtDelete, Target: target, Where: where}
}

// Update builds an UPDATE statement.
func Update(target string, set []Assignment, where ...Condition) Statement {
	return Statement{Kind: StmtUpdate, Target: target, Set: set, Where: where}
}

// Eq is the common equality condition.
func Eq(col string, v value.Value) Condition {
	return Condition{Col: col, Op: datalog.OpEq, Val: v}
}

// Exec runs the statements as one transaction (BEGIN ... END): one engine
// write lock, one view-maintenance pass. All statements must target the
// same relation; for a view target, the combined view delta is derived per
// Algorithm 2 and propagated through the view's update strategy to the
// sources, and the view is then maintained from the source changes like
// any other; if the result is not the updated view — PutGet fails, which a
// strategy registered with SkipValidation can do — the transaction fails
// with an error wrapping ErrPutGetViolation. On any error nothing is
// applied. Exec always commits directly; group commit is the explicit
// Batcher handle (DB.Batch).
func (db *DB) Exec(stmts ...Statement) error {
	_, err := db.execSeq(stmts)
	return err
}

// execSeq is Exec that also reports the commit seq current when the
// transaction released the write lock: its own visibility point, or the
// latest earlier one when it changed nothing.
func (db *DB) execSeq(stmts []Statement) (uint64, error) {
	if len(stmts) == 0 {
		return 0, nil
	}
	if err := oneTarget(stmts); err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.ro != nil {
		return 0, db.readOnlyErrLocked()
	}
	target := stmts[0].Target
	var err error
	if _, ok := db.tables[target]; ok {
		err = db.execTable(target, stmts)
	} else if _, ok := db.views[target]; ok {
		err = db.execView(target, stmts)
	} else {
		err = fmt.Errorf("engine: unknown relation %q", target)
	}
	if err != nil {
		return 0, err
	}
	return db.seq, nil
}

// oneTarget checks the transaction's statements share a single target.
func oneTarget(stmts []Statement) error {
	target := stmts[0].Target
	for _, s := range stmts[1:] {
		if s.Target != target {
			return fmt.Errorf("engine: a transaction must target a single relation (%q vs %q)", target, s.Target)
		}
	}
	return nil
}

// --- the transaction delta (Algorithm 2) ----------------------------------

// execTable commits a base-table transaction: its net delta (txnDelta) is
// applied and committed (commitLocked), which maintains the dependent
// views. A statement error fails the transaction before the store is
// touched — the atomicity Exec promises.
func (db *DB) execTable(name string, stmts []Statement) error {
	d, miss, err := db.txnDelta(name, db.tables[name], stmts, nil)
	if err != nil {
		return err
	}
	db.indexLocked(name, miss)
	changed := map[string]eval.Delta{name: d}
	db.applyLocked(changed)
	return db.commitLocked(wal.KindTxn, changed, nil)
}

// execView derives the transaction's view delta (txnDelta), checks the
// constraints, propagates through the strategy cascade, and applies the
// resulting plan atomically.
func (db *DB) execView(name string, stmts []Statement) error {
	if db.dirty[name] {
		if err := db.refresh(name); err != nil {
			return err
		}
	}
	d, miss, err := db.txnDelta(name, db.views[name].Decl, stmts, nil)
	if err != nil {
		return err
	}
	db.indexLocked(name, miss)
	pl := plan{}
	if err := db.propagate(name, d, pl); err != nil {
		return err
	}
	return db.applyPlan(pl)
}

// txnDelta runs one transaction's statements against relation name (a
// table or a view) and returns their exact net delta against the effective
// state: the store, overlaid with stage — the batch's staged Ins(name) and
// Del(name); nil outside a batch — and with the transaction's own earlier
// statements. It is Algorithm 2 (Appendix D) under set semantics: each
// statement's deletions apply before its insertions (an UPDATE rewriting a
// row to itself is a net no-op), an insert cancels an earlier delete and
// vice versa, and no-op statements contribute nothing. It only reads the
// store and the stage, so a statement error discards the transaction with
// nothing to undo. miss lists the equality-column sets a WHERE probe found
// no store index for (it scanned instead); the caller builds them under the
// write lock (indexLocked), so later probes hit. Every write path —
// execTable, execView and Batcher.admitTable — derives its delta here.
func (db *DB) txnDelta(name string, decl *datalog.RelDecl, stmts []Statement, stage *eval.Database) (eval.Delta, [][]int, error) {
	arity := decl.Arity()
	p := datalog.Pred(name)
	none := value.NewRelation(arity) // no staged rows outside a batch
	e := effective{
		store: db.store,
		stage: stage,
		decl:  decl,
		p:     p,
		rel:   db.store.RelOrEmpty(p, arity),
		sIns:  none,
		sDel:  none,
		txn:   eval.NewDelta(arity),
	}
	if stage != nil {
		e.sIns = stage.RelOrEmpty(datalog.Ins(name), arity)
		e.sDel = stage.RelOrEmpty(datalog.Del(name), arity)
	}
	var miss [][]int
	for _, s := range stmts {
		var plus, minus []value.Tuple
		switch s.Kind {
		case StmtInsert:
			if len(s.Row) != arity {
				return eval.Delta{}, nil, fmt.Errorf("engine: INSERT arity mismatch on %q", name)
			}
			plus = []value.Tuple{s.Row}
		case StmtDelete, StmtUpdate:
			rows, m, err := e.match(s.Where)
			if err != nil {
				return eval.Delta{}, nil, err
			}
			if m != nil {
				miss = append(miss, m)
			}
			minus = rows
			if s.Kind == StmtUpdate {
				if plus, err = applyAssignments(decl, rows, s.Set); err != nil {
					return eval.Delta{}, nil, err
				}
			}
		}
		// A matched row is in the effective state: deleting it cancels this
		// transaction's own insert or deletes a row of a layer below.
		for _, r := range minus {
			if !e.txn.Ins.Remove(r) {
				e.txn.Del.Add(r)
			}
		}
		for _, r := range plus {
			if !e.has(r) && !e.txn.Del.Remove(r) {
				e.txn.Ins.Add(r)
			}
		}
	}
	return e.txn, miss, nil
}

// effective is the state txnDelta's statements run against, in layers:
// the stored relation rel, less the staged deletions sDel plus the staged
// insertions sIns (both empty outside a batch), less txn.Del plus txn.Ins.
type effective struct {
	store, stage *eval.Database // stage is nil outside a batch
	decl         *datalog.RelDecl
	p            datalog.PredSym
	rel          *value.Relation
	sIns, sDel   *value.Relation
	txn          eval.Delta // the transaction's net delta so far
}

// has reports whether t is in the effective state.
func (e *effective) has(t value.Tuple) bool {
	switch {
	case e.txn.Ins.Contains(t):
		return true
	case e.txn.Del.Contains(t):
		return false
	case e.sIns.Contains(t):
		return true
	case e.sDel.Contains(t):
		return false
	}
	return e.rel.Contains(t)
}

// match returns the rows of the effective state matching where, each once.
// When the equalities fix every column, the stored and staged candidates
// are the one row they name, found by membership in those relations
// themselves: no index is probed or built. Otherwise stored rows come from
// an existing store index on the equality columns — a pure read, safe under
// the read lock — or from a scan, which reports the index's positions as
// miss. Staged insertions probe the stage's own indexes (the stage is
// private to its batcher, so building one there mutates nothing shared);
// the transaction's own insertions are bounded by its statements and
// scanned.
func (e *effective) match(where []Condition) (rows []value.Tuple, miss []int, err error) {
	positions, key, none, err := eqProbe(e.decl, where)
	if err != nil || none {
		return nil, nil, err
	}
	stored, staged := e.rel.All(), e.sIns.All()
	switch {
	case positions == nil:
	case len(positions) == e.decl.Arity(): // eqProbe sorts: key is the row
		stored, staged = found(e.rel, key), found(e.sIns, key)
	default:
		if tuples, ok := e.store.LookupExisting(e.p, positions, key); ok {
			stored = slices.Values(tuples)
		} else {
			miss = positions
		}
		if e.stage != nil {
			staged = slices.Values(e.stage.Lookup(datalog.Ins(e.p.Name), positions, key))
		}
	}
	for layer, cands := range [...]iter.Seq[value.Tuple]{stored, staged, e.txn.Ins.All()} {
		for t := range cands {
			if e.shadowed(layer, t) {
				continue
			}
			ok, err := rowMatches(e.decl, t, where)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				rows = append(rows, t)
			}
		}
	}
	return rows, miss, nil
}

// found yields rel's stored row equal to t, if it has one.
func found(rel *value.Relation, t value.Tuple) iter.Seq[value.Tuple] {
	r, ok := rel.Find(t)
	if !ok {
		return slices.Values([]value.Tuple(nil))
	}
	return slices.Values([]value.Tuple{r})
}

// shadowed reports whether candidate t of a layer (0 stored, 1 staged
// insertions, 2 the transaction's insertions) is hidden by a layer above
// it, or — a staged insertion of a stored row — was already visited.
func (e *effective) shadowed(layer int, t value.Tuple) bool {
	switch layer {
	case 0:
		return e.sDel.Contains(t) || e.txn.Del.Contains(t)
	case 1:
		return e.rel.Contains(t) || e.txn.Del.Contains(t)
	}
	return false
}

// indexLocked builds the store indexes txnDelta's probes missed, so the
// relation's next transactions probe instead of scanning. Must run under
// the write lock.
func (db *DB) indexLocked(name string, miss [][]int) {
	for _, positions := range miss {
		db.store.Index(datalog.Pred(name), positions)
	}
}

// --- propagation through view update strategies -------------------------

// plan accumulates the changes of one transaction, per relation (base
// tables and views), before anything is applied, so that a failed
// constraint or contradiction aborts cleanly.
type plan map[string]eval.Delta

// add merges d into the relation's planned delta; the plan owns d after.
func (pl plan) add(name string, d eval.Delta) {
	acc, ok := pl[name]
	if !ok {
		pl[name] = d
		return
	}
	acc.Ins.UnionWith(d.Ins)
	acc.Del.UnionWith(d.Del)
}

// propagate evaluates the update strategy of view name against the view
// delta and records the source deltas in the plan, cascading into sources
// that are themselves views.
func (db *DB) propagate(name string, d eval.Delta, pl plan) error {
	v := db.views[name]
	cur := db.store.RelOrEmpty(datalog.Pred(name), v.Decl.Arity())
	// Normalize: inserting a present tuple and deleting an absent one are
	// no-ops under set semantics (a cascaded source delta may hold either).
	norm := eval.NewDelta(v.Decl.Arity())
	d.Ins.Each(func(t value.Tuple) {
		if !cur.Contains(t) {
			norm.Ins.Add(t)
		}
	})
	d.Del.Each(func(t value.Tuple) {
		if cur.Contains(t) {
			norm.Del.Add(t)
		}
	})
	if norm.Empty() {
		return nil
	}
	pl.add(name, norm)

	deltas := make(map[string]eval.Delta) // source -> delta
	if v.Incremental {
		if err := db.evalIncremental(v, norm, deltas); err != nil {
			return err
		}
	} else {
		if err := db.evalFull(name, v, norm, deltas); err != nil {
			return err
		}
	}

	for _, s := range v.sources {
		sd, ok := deltas[s]
		if !ok {
			continue
		}
		if _, isTable := db.tables[s]; isTable {
			pl.add(s, sd)
			continue
		}
		if err := db.propagate(s, sd, pl); err != nil {
			return err
		}
	}
	return nil
}

// evalIncremental runs ∂put: the store is extended with the view delta
// relations +v / -v, the incremental program is evaluated, and the source
// deltas are collected. Cost is proportional to the view delta once the
// store's indexes are warm.
func (db *DB) evalIncremental(v *View, d eval.Delta, deltas map[string]eval.Delta) error {
	name := v.Decl.Name
	// Update keeps any indexes on the view-delta predicates alive across
	// transactions instead of dropping and lazily rebuilding them.
	db.store.Update(datalog.Ins(name), d.Ins)
	db.store.Update(datalog.Del(name), d.Del)
	defer func() {
		db.store.Update(datalog.Ins(name), value.NewRelation(v.Decl.Arity()))
		db.store.Update(datalog.Del(name), value.NewRelation(v.Decl.Arity()))
	}()
	// Admissibility: constraints checked against the inserted tuples.
	if err := v.consEval.Eval(db.store); err != nil {
		return err
	}
	violated, err := v.consEval.Violations(db.store)
	if err != nil {
		return err
	}
	if len(violated) > 0 {
		return fmt.Errorf("engine: view update on %q rejected: constraint %s violated", name, violated[0])
	}

	if err := v.incEval.Eval(db.store); err != nil {
		return err
	}
	collectDeltas(db.store, v, deltas)
	return nil
}

// evalFull runs the original putdelta over (S, V ⊕ ΔV): the view relation
// is temporarily replaced by the updated view, the full strategy is
// evaluated (cost proportional to the base tables), and the source deltas
// are collected.
func (db *DB) evalFull(name string, v *View, d eval.Delta, deltas map[string]eval.Delta) error {
	p := datalog.Pred(name)
	old := db.store.RelOrEmpty(p, v.Decl.Arity())
	updated := old.Clone()
	updated.SubtractAll(d.Del)
	updated.UnionWith(d.Ins)
	db.store.Update(p, updated)
	defer db.store.Update(p, old)

	if err := v.putEval.Eval(db.store); err != nil {
		return err
	}
	violated, err := v.putEval.Violations(db.store)
	if err != nil {
		return err
	}
	if len(violated) > 0 {
		return fmt.Errorf("engine: view update on %q rejected: constraint %s violated", name, violated[0])
	}
	collectDeltas(db.store, v, deltas)
	return nil
}

// collectDeltas clones the evaluated ±source relations — ±<view>.put.<source>
// in the view's namespace — out of the store.
func collectDeltas(store *eval.Database, v *View, deltas map[string]eval.Delta) {
	ns := putNS(v.Decl.Name)
	for _, s := range v.Strategy.Prog.Sources {
		d := eval.Delta{
			Ins: store.RelOrEmpty(datalog.Ins(ns+s.Name), s.Arity()).Clone(),
			Del: store.RelOrEmpty(datalog.Del(ns+s.Name), s.Arity()).Clone(),
		}
		if !d.Empty() {
			deltas[s.Name] = d
		}
	}
}

// applyPlan validates the accumulated plan (no relation may both insert and
// delete the same tuple), applies its base-table deltas to the store and
// commits their exact net delta — only rows whose membership actually
// changed. The views of the plan are not written: commitLocked maintains
// them from the base-table deltas like any other write, and checks that
// each one's maintained delta is the ΔV the plan derived for it (PutGet).
func (db *DB) applyPlan(pl plan) error {
	names := make([]string, 0, len(pl))
	for n := range pl {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if common := pl[n].Ins.Intersect(pl[n].Del); !common.Empty() {
			return fmt.Errorf("engine: contradictory updates on %q: tuple %s both inserted and deleted",
				n, common.Tuples()[0])
		}
	}
	changed := make(map[string]eval.Delta, len(names))
	want := make(map[string]eval.Delta)
	for _, n := range names {
		if _, isView := db.views[n]; isView {
			want[n] = pl[n]
			continue
		}
		p := datalog.Pred(n)
		d := eval.NewDelta(pl[n].Ins.Arity())
		pl[n].Del.Each(func(t value.Tuple) {
			if db.store.Delete(p, t) {
				d.Del.Add(t)
			}
		})
		pl[n].Ins.Each(func(t value.Tuple) {
			if db.store.Insert(p, t) {
				d.Ins.Add(t)
			}
		})
		if !d.Empty() {
			changed[n] = d
		}
	}
	return db.commitLocked(wal.KindTxn, changed, want)
}

// --- row matching ---------------------------------------------------------

// colIndex resolves a column name to its position.
func colIndex(decl *datalog.RelDecl, col string) (int, error) {
	for i, a := range decl.Attrs {
		if a.Name == col {
			return i, nil
		}
	}
	return 0, fmt.Errorf("engine: relation %q has no column %q", decl.Name, col)
}

// rowMatches evaluates the conditions against one row.
func rowMatches(decl *datalog.RelDecl, row value.Tuple, where []Condition) (bool, error) {
	for _, c := range where {
		i, err := colIndex(decl, c.Col)
		if err != nil {
			return false, err
		}
		if !c.Op.Eval(row[i], c.Val) {
			return false, nil
		}
	}
	return true, nil
}

// eqProbe normalizes the equality conjuncts of a WHERE clause into a hash
// probe: sorted, deduplicated key positions and the corresponding key.
// positions is nil when the clause has no equality conjunct (callers must
// scan); none reports a contradictory equality pair, which matches nothing.
func eqProbe(decl *datalog.RelDecl, where []Condition) (positions []int, key value.Tuple, none bool, err error) {
	var eqPos []int
	var eqVals []value.Value
	for _, c := range where {
		if c.Op != datalog.OpEq {
			continue
		}
		i, err := colIndex(decl, c.Col)
		if err != nil {
			return nil, nil, false, err
		}
		eqPos = append(eqPos, i)
		eqVals = append(eqVals, c.Val)
	}
	if len(eqPos) == 0 {
		return nil, nil, false, nil
	}
	if len(eqPos) == 1 { // the common point-lookup: no dedup bookkeeping
		return eqPos, value.Tuple{eqVals[0]}, false, nil
	}
	// Deduplicate positions for the index key (repeated columns in the
	// WHERE clause are legal but would corrupt the mask).
	type pv struct {
		pos int
		val value.Value
	}
	seen := make(map[int]pv)
	ordered := eqPos[:0:0]
	for k, pos := range eqPos {
		if prev, ok := seen[pos]; ok {
			if !prev.val.Equal(eqVals[k]) {
				return nil, nil, true, nil // contradictory equalities match nothing
			}
			continue
		}
		seen[pos] = pv{pos, eqVals[k]}
		ordered = append(ordered, pos)
	}
	sort.Ints(ordered)
	key = make(value.Tuple, len(ordered))
	for k, pos := range ordered {
		key[k] = seen[pos].val
	}
	return ordered, key, false, nil
}

// applyAssignments produces the updated versions of rows under SET clauses.
func applyAssignments(decl *datalog.RelDecl, rows []value.Tuple, set []Assignment) ([]value.Tuple, error) {
	out := make([]value.Tuple, 0, len(rows))
	for _, r := range rows {
		nr := r.Clone()
		for _, a := range set {
			i, err := colIndex(decl, a.Col)
			if err != nil {
				return nil, err
			}
			nr[i] = a.Val
		}
		out = append(out, nr)
	}
	return out, nil
}
