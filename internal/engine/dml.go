package engine

import (
	"fmt"
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
// sources. On any error nothing is applied. Exec always commits directly;
// group commit is the explicit Batcher handle (DB.Batch).
func (db *DB) Exec(stmts ...Statement) error {
	if len(stmts) == 0 {
		return nil
	}
	if err := oneTarget(stmts); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.ro != nil {
		return db.readOnlyErrLocked()
	}
	target := stmts[0].Target
	if _, ok := db.tables[target]; ok {
		return db.execTable(target, stmts)
	}
	if _, ok := db.views[target]; ok {
		return db.execView(target, stmts)
	}
	return fmt.Errorf("engine: unknown relation %q", target)
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

// --- statements against base tables -------------------------------------

// execTable applies the statements to a base table, accumulating the
// transaction's exact net row delta — an insert cancelling an earlier
// delete (and vice versa) nets out, and no-op statements contribute
// nothing — and commits it (commitLocked), which maintains the dependent
// views. A statement error undoes the already-applied part of the delta,
// so a failed transaction leaves the store (and every maintained view)
// exactly as it was — the atomicity Exec promises.
func (db *DB) execTable(name string, stmts []Statement) error {
	decl := db.tables[name]
	p := datalog.Pred(name)
	d := eval.NewDelta(decl.Arity())
	changed := map[string]eval.Delta{name: d}
	insert := func(r value.Tuple) {
		if db.store.Insert(p, r) {
			if !d.Del.Remove(r) {
				d.Ins.Add(r)
			}
		}
	}
	remove := func(r value.Tuple) {
		if db.store.Delete(p, r) {
			if !d.Ins.Remove(r) {
				d.Del.Add(r)
			}
		}
	}
	match := func(where []Condition) ([]value.Tuple, error) {
		return db.matchRows(name, decl, where)
	}
	if err := runTableStmts(name, decl, stmts, match, insert, remove); err != nil {
		db.undoLocked(changed)
		return err
	}
	return db.commitLocked(wal.KindTxn, changed, nil)
}

// runTableStmts is the statement loop shared by the direct write path
// (execTable) and batch admission (Batcher.admitTable): the transaction
// semantics — arity validation, WHERE matching, UPDATE as delete-then-
// insert of the matched rows — live here once, parameterized over the
// effective state the statements run against (the store directly, or the
// store overlaid with staged batch deltas).
func runTableStmts(name string, decl *datalog.RelDecl, stmts []Statement,
	match func([]Condition) ([]value.Tuple, error),
	insert, remove func(value.Tuple)) error {
	for _, s := range stmts {
		switch s.Kind {
		case StmtInsert:
			if len(s.Row) != decl.Arity() {
				return fmt.Errorf("engine: INSERT arity mismatch on %q", name)
			}
			insert(s.Row)
		case StmtDelete:
			rows, err := match(s.Where)
			if err != nil {
				return err
			}
			for _, r := range rows {
				remove(r)
			}
		case StmtUpdate:
			rows, err := match(s.Where)
			if err != nil {
				return err
			}
			updated, err := applyAssignments(decl, rows, s.Set)
			if err != nil {
				return err
			}
			for _, r := range rows {
				remove(r)
			}
			for _, r := range updated {
				insert(r)
			}
		}
	}
	return nil
}

// --- statements against views --------------------------------------------

// execView derives the transaction's view delta (Algorithm 2), checks the
// constraints, propagates through the strategy cascade, and applies the
// resulting plan atomically.
func (db *DB) execView(name string, stmts []Statement) error {
	v := db.views[name]
	if db.dirty[name] {
		if err := db.refresh(name); err != nil {
			return err
		}
	}
	ins, del, err := db.viewDelta(name, v.Decl, stmts)
	if err != nil {
		return err
	}

	pl := newPlan()
	if err := db.propagate(name, ins, del, pl); err != nil {
		return err
	}
	return db.applyPlan(pl)
}

// viewDelta implements Algorithm 2: fold the per-statement insertion and
// deletion sets into ΔV, with later statements overriding earlier ones.
func (db *DB) viewDelta(name string, decl *datalog.RelDecl, stmts []Statement) (ins, del *value.Relation, err error) {
	arity := decl.Arity()
	ins, del = value.NewRelation(arity), value.NewRelation(arity)

	// matchEffective returns the rows of (V \ del) ∪ ins matching where.
	matchEffective := func(where []Condition) ([]value.Tuple, error) {
		base, err := db.matchRows(name, decl, where)
		if err != nil {
			return nil, err
		}
		var out []value.Tuple
		for _, r := range base {
			if !del.Contains(r) {
				out = append(out, r)
			}
		}
		for _, r := range ins.Tuples() {
			okRow, err := rowMatches(decl, r, where)
			if err != nil {
				return nil, err
			}
			if okRow {
				out = append(out, r)
			}
		}
		return out, nil
	}

	for _, s := range stmts {
		var plus, minus []value.Tuple
		switch s.Kind {
		case StmtInsert:
			if len(s.Row) != arity {
				return nil, nil, fmt.Errorf("engine: INSERT arity mismatch on %q", name)
			}
			plus = []value.Tuple{s.Row}
		case StmtDelete:
			minus, err = matchEffective(s.Where)
			if err != nil {
				return nil, nil, err
			}
		case StmtUpdate:
			minus, err = matchEffective(s.Where)
			if err != nil {
				return nil, nil, err
			}
			plus, err = applyAssignments(decl, minus, s.Set)
			if err != nil {
				return nil, nil, err
			}
		}
		// ΔV+ ← (ΔV+ \ δ−) ∪ δ+ ; ΔV− ← (ΔV− ∪ δ−) \ δ+ (Algorithm 2,
		// with a statement's own deletions applied before its insertions —
		// an UPDATE rewriting a row to itself is a net no-op, per
		// Appendix D's "deletions followed by insertions").
		for _, r := range minus {
			ins.Remove(r)
			del.Add(r)
		}
		for _, r := range plus {
			ins.Add(r)
			del.Remove(r)
		}
	}
	return ins, del, nil
}

// plan accumulates the changes of one transaction before anything is
// applied, so that a failed constraint or contradiction aborts cleanly.
type plan struct {
	ins map[string]*value.Relation // per relation (base tables and views)
	del map[string]*value.Relation
}

func newPlan() *plan {
	return &plan{ins: make(map[string]*value.Relation), del: make(map[string]*value.Relation)}
}

func (p *plan) add(name string, arity int, ins, del *value.Relation) {
	if p.ins[name] == nil {
		p.ins[name] = value.NewRelation(arity)
		p.del[name] = value.NewRelation(arity)
	}
	p.ins[name].UnionWith(ins)
	p.del[name].UnionWith(del)
}

// propagate evaluates the update strategy of view name against the view
// delta and records the source deltas in the plan, cascading into sources
// that are themselves views.
func (db *DB) propagate(name string, ins, del *value.Relation, pl *plan) error {
	v := db.views[name]
	cur := db.store.RelOrEmpty(datalog.Pred(name), v.Decl.Arity())
	// Normalize: inserting a present tuple and deleting an absent one are
	// no-ops under set semantics.
	normIns := value.NewRelation(v.Decl.Arity())
	ins.Each(func(t value.Tuple) {
		if !cur.Contains(t) {
			normIns.Add(t)
		}
	})
	normDel := value.NewRelation(v.Decl.Arity())
	del.Each(func(t value.Tuple) {
		if cur.Contains(t) {
			normDel.Add(t)
		}
	})
	if normIns.Empty() && normDel.Empty() {
		return nil
	}
	pl.add(name, v.Decl.Arity(), normIns, normDel)

	deltas := make(map[string][2]*value.Relation) // source -> (ins, del)
	if v.Incremental {
		if err := db.evalIncremental(v, normIns, normDel, deltas); err != nil {
			return err
		}
	} else {
		if err := db.evalFull(name, v, normIns, normDel, deltas); err != nil {
			return err
		}
	}

	for _, s := range v.sources {
		d, ok := deltas[s]
		if !ok {
			continue
		}
		if _, isTable := db.tables[s]; isTable {
			pl.add(s, db.tables[s].Arity(), d[0], d[1])
			continue
		}
		if err := db.propagate(s, d[0], d[1], pl); err != nil {
			return err
		}
	}
	return nil
}

// evalIncremental runs ∂put: the store is extended with the view delta
// relations +v / -v, the incremental program is evaluated, and the source
// deltas are collected. Cost is proportional to the view delta once the
// store's indexes are warm.
func (db *DB) evalIncremental(v *View, ins, del *value.Relation, deltas map[string][2]*value.Relation) error {
	// The ∂put and constraint programs overwrite their IDB relations in the
	// shared store; drop the get-side counts that described them.
	db.invalidateForStrategyRun(v)
	name := v.Decl.Name
	// Update keeps any indexes on the view-delta predicates alive across
	// transactions instead of dropping and lazily rebuilding them.
	db.store.Update(datalog.Ins(name), ins)
	db.store.Update(datalog.Del(name), del)
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
func (db *DB) evalFull(name string, v *View, ins, del *value.Relation, deltas map[string][2]*value.Relation) error {
	// The strategy evaluation overwrites its IDB relations in the shared
	// store; drop the get-side counts that described them.
	db.invalidateForStrategyRun(v)
	p := datalog.Pred(name)
	old := db.store.RelOrEmpty(p, v.Decl.Arity())
	updated := old.Clone()
	updated.SubtractAll(del)
	updated.UnionWith(ins)
	db.store.Update(p, updated)
	defer db.store.Update(p, old)

	ev := v.Strategy.Evaluator()
	if err := ev.Eval(db.store); err != nil {
		return err
	}
	violated, err := ev.Violations(db.store)
	if err != nil {
		return err
	}
	if len(violated) > 0 {
		return fmt.Errorf("engine: view update on %q rejected: constraint %s violated", name, violated[0])
	}
	collectDeltas(db.store, v, deltas)
	return nil
}

// collectDeltas clones the evaluated ±source relations out of the store.
func collectDeltas(store *eval.Database, v *View, deltas map[string][2]*value.Relation) {
	for _, s := range v.Strategy.Prog.Sources {
		ins := store.RelOrEmpty(datalog.Ins(s.Name), s.Arity()).Clone()
		del := store.RelOrEmpty(datalog.Del(s.Name), s.Arity()).Clone()
		if ins.Empty() && del.Empty() {
			continue
		}
		deltas[s.Name] = [2]*value.Relation{ins, del}
	}
}

// applyPlan validates the accumulated plan (no relation may both insert and
// delete the same tuple), applies it to the store and commits the exact net
// delta of every applied relation — only rows whose membership actually
// changed. The WAL record holds only the base-table deltas (view rows are
// derived state, re-materialized on recovery); views inside the plan were
// updated exactly and are kept out of maintenance.
func (db *DB) applyPlan(pl *plan) error {
	names := make([]string, 0, len(pl.ins))
	for n := range pl.ins {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if common := pl.ins[n].Intersect(pl.del[n]); !common.Empty() {
			return fmt.Errorf("engine: contradictory updates on %q: tuple %s both inserted and deleted",
				n, common.Tuples()[0])
		}
	}
	changed := make(map[string]eval.Delta, len(names))
	keep := make(map[string]bool)
	for _, n := range names {
		p := datalog.Pred(n)
		d := eval.NewDelta(pl.ins[n].Arity())
		pl.del[n].Each(func(t value.Tuple) {
			if db.store.Delete(p, t) {
				d.Del.Add(t)
			}
		})
		pl.ins[n].Each(func(t value.Tuple) {
			if db.store.Insert(p, t) {
				d.Ins.Add(t)
			}
		})
		if !d.Empty() {
			changed[n] = d
		}
		if _, isView := db.views[n]; isView {
			keep[n] = true // maintained exactly by the plan
		}
	}
	return db.commitLocked(wal.KindTxn, changed, keep)
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

// matchRows returns the stored rows of a relation matching the conditions,
// probing a hash index on the equality columns when possible.
func (db *DB) matchRows(name string, decl *datalog.RelDecl, where []Condition) ([]value.Tuple, error) {
	positions, key, none, err := eqProbe(decl, where)
	if err != nil || none {
		return nil, err
	}
	p := datalog.Pred(name)
	var candidates []value.Tuple
	if positions != nil {
		candidates = db.store.Lookup(p, positions, key)
	} else {
		candidates = db.store.RelOrEmpty(p, decl.Arity()).Tuples()
	}
	var out []value.Tuple
	for _, r := range candidates {
		ok, err := rowMatches(decl, r, where)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
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
