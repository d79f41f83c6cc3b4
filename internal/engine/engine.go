// Package engine is the relational execution substrate standing in for
// PostgreSQL in the paper's experiments (§6.1): an in-memory RDBMS with
// base tables, materialized updatable views, DML statements, transactions
// (Algorithm 2's view-delta derivation), and INSTEAD OF trigger semantics.
//
// Registering a view installs its validated putback strategy as the
// trigger. A view update derives the view delta ΔV from the DML statements,
// checks the integrity constraints, evaluates the strategy (the original
// putdelta, or the incrementalized ∂put of Section 5), and applies the
// source deltas; the view itself is then maintained from them like any
// other dependent view, and must come out as the updated view (PutGet). A
// source that is itself a view cascades the propagation — the
// view-over-view updating of the §3.3 case study (residents1962 updates
// residents, which updates the base tables).
package engine

import (
	"fmt"
	"sort"
	"sync"

	"birds/internal/cdc"
	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/sat"
	"birds/internal/value"
	"birds/internal/wal"
)

// DB is an in-memory relational database with updatable views. All public
// methods are safe for concurrent use. Transactions serialize on a write
// lock; read-only operations (Rel on tables and clean views, IsView, View,
// Relations) run concurrently under a read lock. Reading a stale view
// upgrades to the write lock, because rematerialization mutates the store.
type DB struct {
	mu        sync.RWMutex
	store     *eval.Database
	tables    map[string]*datalog.RelDecl
	views     map[string]*View
	dirty     map[string]bool // views whose materialization is stale
	viewOrder []string        // views in dependency order (sources first); rebuilt on CreateView
	execMode  eval.ExecMode   // execution strategy for view evaluators (zero = streaming)

	// dur, when non-nil, is the crash-durability state (durable.go): the
	// attached write-ahead log and checkpoint policy. Guarded by mu — every
	// write path holds the write lock at its WAL hook, which is what makes
	// log order identical to commit order.
	dur *durability

	// hub, when non-nil, is the change-data-capture subscription hub
	// (subscribe.go). Created lazily by the first Subscribe and kept for
	// the life of the DB (it survives Reopen — subscriptions outlive a
	// state swap by resyncing). Guarded by mu; every publish site holds
	// the write lock, so event order is commit order.
	hub *cdc.Hub

	// seq is the commit sequence: the number of the latest visibility
	// point, advanced by one per point (logLocked). It is the WAL LSN of
	// the point's record when durable and the Seq of its CDC events, and
	// it never goes backwards, Reopen included. Guarded by mu.
	seq uint64

	// ro, when non-nil, is the storage failure that forced read-only
	// degraded mode (degrade.go): every write path fails fast with
	// ErrReadOnly until Reopen recovers from disk. Guarded by mu.
	ro error
	// reopening guards against concurrent Reopen calls. Guarded by mu.
	reopening bool
}

// View is a registered updatable view: its schema, validated strategy
// (the INSTEAD OF trigger), derived get, and compiled evaluators.
//
// Every view's programs share the engine's one store, so each evaluator
// runs over a renamed copy of its program: every IDB predicate other than
// the view itself moves into the view's own namespace — <view>.get.<p> for
// the get program, <view>.put.<p> for the strategy, ∂put and constraint
// programs, ±source heads included. No identifier contains a dot, so these
// names collide with no user relation and no other view's: the get
// program's counted relations are written only by its own maintenance, and
// its support counts survive view writes, strategy runs and other views'
// registrations alike.
type View struct {
	Decl        *datalog.RelDecl
	Strategy    *core.Putback
	Get         []*datalog.Rule
	Incremental bool

	getEval  *eval.Evaluator // get, maintained by counting IVM
	putEval  *eval.Evaluator // the original putdelta (nil when Incremental)
	incEval  *eval.Evaluator // ∂put (nil unless Incremental)
	consEval *eval.Evaluator // delta-substituted constraints (nil unless Incremental)
	sources  []string        // source relation names (tables or views)
}

// getNS and putNS are the prefixes of a view's get-side and strategy-side
// namespaces (see View).
func getNS(view string) string { return view + ".get." }
func putNS(view string) string { return view + ".put." }

// namespaced returns a copy of prog with every IDB predicate except the view
// moved into namespace ns.
func namespaced(prog *datalog.Program, ns string) *datalog.Program {
	view := datalog.Pred(prog.View.Name)
	rename := make(map[datalog.PredSym]datalog.PredSym)
	for p := range prog.IDBPreds() {
		if p != view {
			rename[p] = datalog.PredSym{Name: ns + p.Name, Delta: p.Delta}
		}
	}
	return prog.Renamed(rename)
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		store:  eval.NewDatabase(),
		tables: make(map[string]*datalog.RelDecl),
		views:  make(map[string]*View),
		dirty:  make(map[string]bool),
	}
}

// SetExecMode selects the execution strategy for full evaluations behind
// view operations, for existing and future views: eval.ExecStreaming (the
// default) pipelines joins through ephemeral hash tables built on the small
// side; eval.ExecMaterialized restores the index-everything executor. The
// two produce identical results — materialized mode exists as the
// differential oracle and as an escape hatch. Incremental delta propagation
// is unaffected either way.
func (db *DB) SetExecMode(m eval.ExecMode) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.execMode = m
	for _, v := range db.views {
		v.setExecMode(m)
	}
}

// setExecMode applies the execution strategy to every evaluator of the
// view, and to the strategy's own evaluator, whose plans the shell's
// \explain renders.
func (v *View) setExecMode(m eval.ExecMode) {
	for _, e := range []*eval.Evaluator{v.getEval, v.putEval, v.incEval, v.consEval, v.Strategy.Evaluator()} {
		if e != nil {
			e.SetExecMode(m)
		}
	}
}

// CreateTable registers a base table.
func (db *DB) CreateTable(decl *datalog.RelDecl) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[decl.Name]; ok {
		return fmt.Errorf("engine: table %q already exists", decl.Name)
	}
	if _, ok := db.views[decl.Name]; ok {
		return fmt.Errorf("engine: %q already exists as a view", decl.Name)
	}
	db.tables[decl.Name] = decl
	db.store.Ensure(datalog.Pred(decl.Name), decl.Arity())
	// DDL lives in checkpoints, not WAL records: a new table must be in the
	// durable catalog before any row record can target it. A table the
	// catalog cannot hold cannot exist.
	if err := db.ddlCheckpointLocked(); err != nil {
		delete(db.tables, decl.Name)
		return fmt.Errorf("engine: create table %q: %w", decl.Name, err)
	}
	return nil
}

// ViewOptions configures CreateView.
type ViewOptions struct {
	// ExpectedGet optionally provides the intended view definition; the
	// validator confirms it or derives one.
	ExpectedGet []*datalog.Rule
	// Incremental installs the ∂put program of Section 5 instead of the
	// original putdelta.
	Incremental bool
	// SkipValidation trusts the strategy without running Algorithm 1
	// (ExpectedGet is then required). Used by benchmarks that validate
	// separately.
	SkipValidation bool
	// Oracle overrides the validation oracle configuration.
	Oracle *sat.Config
}

// CreateView parses, validates and registers an updatable view from a
// putback program, then materializes it.
func (db *DB) CreateView(src string, opts ViewOptions) (*View, error) {
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.CreateViewFromProgram(prog, opts)
}

// CreateViewFromProgram is CreateView for an already-parsed program.
func (db *DB) CreateViewFromProgram(prog *datalog.Program, opts ViewOptions) (*View, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if prog.View == nil {
		return nil, fmt.Errorf("engine: putback program must declare a view")
	}
	name := prog.View.Name
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("engine: %q already exists as a table", name)
	}
	if _, ok := db.views[name]; ok {
		return nil, fmt.Errorf("engine: view %q already exists", name)
	}
	for _, s := range prog.Sources {
		existing := db.relDecl(s.Name)
		if existing == nil {
			return nil, fmt.Errorf("engine: source relation %q does not exist", s.Name)
		}
		if existing.Arity() != s.Arity() {
			return nil, fmt.Errorf("engine: source %q has arity %d, program declares %d",
				s.Name, existing.Arity(), s.Arity())
		}
	}

	pb, err := core.NewPutback(prog)
	if err != nil {
		return nil, err
	}
	v := &View{Decl: prog.View, Strategy: pb, Incremental: opts.Incremental}
	for _, s := range prog.Sources {
		v.sources = append(v.sources, s.Name)
	}

	if opts.SkipValidation {
		if opts.ExpectedGet == nil {
			return nil, fmt.Errorf("engine: SkipValidation requires ExpectedGet")
		}
		v.Get = opts.ExpectedGet
	} else {
		vopts := core.DefaultOptions()
		if opts.Oracle != nil {
			vopts.Oracle = *opts.Oracle
		}
		res, err := core.Validate(pb, opts.ExpectedGet, vopts)
		if err != nil {
			return nil, err
		}
		if !res.Valid {
			return nil, fmt.Errorf("engine: invalid update strategy for view %q: %w", name, res.Failure)
		}
		v.Get = res.Get
	}

	if v.getEval, err = eval.New(namespaced(core.GetProgram(prog, v.Get), getNS(name))); err != nil {
		return nil, fmt.Errorf("engine: get program for %q: %w", name, err)
	}
	if opts.Incremental {
		inc, err := core.Incrementalize(prog)
		if err != nil {
			return nil, err
		}
		if v.incEval, err = eval.New(namespaced(inc, putNS(name))); err != nil {
			return nil, fmt.Errorf("engine: ∂put for %q: %w", name, err)
		}
		if v.consEval, err = eval.New(namespaced(deltaConstraintProgram(prog), putNS(name))); err != nil {
			return nil, err
		}
	} else if v.putEval, err = eval.New(namespaced(prog, putNS(name))); err != nil {
		return nil, fmt.Errorf("engine: strategy for %q: %w", name, err)
	}
	v.setExecMode(db.execMode)

	db.views[name] = v
	db.dirty[name] = true
	if err := db.refresh(name); err != nil {
		delete(db.views, name)
		return nil, err
	}
	db.rebuildViewOrder()
	// Persist the catalog change (view program, validated get rules,
	// maintenance mode) before acknowledging the DDL; roll the registration
	// back if it cannot be made durable.
	if err := db.ddlCheckpointLocked(); err != nil {
		delete(db.views, name)
		delete(db.dirty, name)
		db.rebuildViewOrder()
		return nil, fmt.Errorf("engine: create view %q: %w", name, err)
	}
	return v, nil
}

// deltaConstraintProgram builds the program of the constraints with the
// view atom substituted by the insertion delta +v, so that admissibility of
// an update is checked against the inserted tuples only (deletions cannot
// introduce a violation of a linear-view constraint, and previously present
// tuples were checked by earlier transactions).
func deltaConstraintProgram(prog *datalog.Program) *datalog.Program {
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

// relDecl returns the declaration of a table or view, or nil.
func (db *DB) relDecl(name string) *datalog.RelDecl {
	if d, ok := db.tables[name]; ok {
		return d
	}
	if v, ok := db.views[name]; ok {
		return v.Decl
	}
	return nil
}

// Decl returns the declaration of a registered table or view, or nil.
// Declared attribute types are enforced at engine boundaries that choose
// to (the network server does); the engine core itself only checks arity.
func (db *DB) Decl(name string) *datalog.RelDecl {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.relDecl(name)
}

// IsView reports whether name is a registered view.
func (db *DB) IsView(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.views[name]
	return ok
}

// View returns the registered view, or nil.
func (db *DB) View(name string) *View {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.views[name]
}

// Stale reports whether a view's materialization is currently stale — the
// fallback state in which the next read fully recomputes it. Steady-state
// DML keeps views clean (maintained incrementally in place); bulk loads
// and maintenance failures mark them stale. Tables are never stale.
func (db *DB) Stale(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dirty[name]
}

// Rel returns the current contents of a table or view (recomputing a stale
// view first). The returned relation must not be mutated, and it is live:
// a later transaction on the same relation updates it in place, so
// iterating it concurrently with writes to that relation is a data race.
// Callers that read while other goroutines may write should use Get, which
// returns an immutable O(1) copy-on-write snapshot instead.
//
// Tables and clean views are served under the read lock, so concurrent
// readers do not serialize. A stale view re-acquires the write lock
// (rematerialization mutates the store) and rechecks, since another
// transaction may have intervened.
func (db *DB) Rel(name string) (*value.Relation, error) {
	return db.read(name, false)
}

// read is the shared protocol behind Rel and Get: serve tables and clean
// views under the read lock; upgrade to the write lock (and recheck —
// another transaction may have intervened) to refresh a stale view. With
// snap the relation is wrapped in a copy-on-write snapshot before the lock
// is released, so no writer can slip in between resolution and snapshot.
func (db *DB) read(name string, snap bool) (*value.Relation, error) {
	out := func(r *value.Relation) *value.Relation {
		if snap {
			return r.Snapshot()
		}
		return r
	}
	db.mu.RLock()
	if d, ok := db.tables[name]; ok {
		r := out(db.store.RelOrEmpty(datalog.Pred(name), d.Arity()))
		db.mu.RUnlock()
		return r, nil
	}
	if v, ok := db.views[name]; ok && !db.dirty[name] {
		r := out(db.store.RelOrEmpty(datalog.Pred(name), v.Decl.Arity()))
		db.mu.RUnlock()
		return r, nil
	}
	db.mu.RUnlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	if d, ok := db.tables[name]; ok {
		return out(db.store.RelOrEmpty(datalog.Pred(name), d.Arity())), nil
	}
	v, ok := db.views[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown relation %q", name)
	}
	if db.dirty[name] {
		if err := db.refresh(name); err != nil {
			return nil, err
		}
	}
	return out(db.store.RelOrEmpty(datalog.Pred(name), v.Decl.Arity())), nil
}

// Get returns an immutable snapshot of the current contents of a table or
// view (recomputing a stale view first). Taking the snapshot is O(1) — it
// shares the relation's storage copy-on-write, so no tuples are copied on
// the read path — and the snapshot keeps observing exactly the state at
// the time of the call: later transactions quietly divert the live
// relation onto private storage before mutating it. Snapshots are safe to
// iterate concurrently with writers; do not mutate them.
//
// Tables and clean views are served under the read lock, so concurrent
// readers do not serialize. A stale view re-acquires the write lock
// (rematerialization mutates the store) and rechecks, since another
// transaction may have intervened.
func (db *DB) Get(name string) (*value.Relation, error) {
	return db.read(name, true)
}

// GetAll returns immutable snapshots of several relations taken under ONE
// lock acquisition, so the returned map is a mutually consistent cut of the
// database: no transaction (and in particular no group-commit flush) can
// interleave between the individual snapshots. A view's snapshot therefore
// agrees exactly with the base-table snapshots it derives from — the
// atomic-visibility contract the server's torn-batch checker pins down.
// Each snapshot is O(1) copy-on-write, like Get's.
func (db *DB) GetAll(names ...string) (map[string]*value.Relation, error) {
	out := make(map[string]*value.Relation, len(names))
	db.mu.RLock()
	clean := true
	for _, n := range names {
		if _, ok := db.tables[n]; ok {
			continue
		}
		if _, ok := db.views[n]; !ok || db.dirty[n] {
			clean = false
			break
		}
	}
	if clean {
		for _, n := range names {
			d := db.relDecl(n)
			out[n] = db.store.RelOrEmpty(datalog.Pred(n), d.Arity()).Snapshot()
		}
		db.mu.RUnlock()
		return out, nil
	}
	db.mu.RUnlock()

	// A stale view (or an unknown name) forces the write lock:
	// rematerialization mutates the store. Recheck everything — another
	// transaction may have intervened.
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, n := range names {
		d := db.relDecl(n)
		if d == nil {
			return nil, fmt.Errorf("engine: unknown relation %q", n)
		}
		if db.dirty[n] {
			if err := db.refresh(n); err != nil {
				return nil, err
			}
		}
		out[n] = db.store.RelOrEmpty(datalog.Pred(n), d.Arity()).Snapshot()
	}
	return out, nil
}

// refresh fully rematerializes a view (and, first, its stale sources) —
// the fallback path for views whose incremental maintenance state is
// unavailable (bulk loads, maintenance errors, stale sources) and the
// initial materialization of a new or recovered view. It is one counted
// evaluation, so the view leaves it ready for O(|Δ|) maintenance.
// Steady-state DML never comes through here: maintainViews adjusts clean
// views in place and leaves the dirty flag unset.
func (db *DB) refresh(name string) error {
	v := db.views[name]
	for _, s := range v.sources {
		if db.dirty[s] {
			if err := db.refresh(s); err != nil {
				return err
			}
		}
	}
	if err := v.getEval.InitIVM(db.store); err != nil {
		return err
	}
	db.dirty[name] = false
	return nil
}

// markDependentsDirty flags every view that transitively reads any of the
// changed relations.
func (db *DB) markDependentsDirty(changed map[string]bool) {
	for progress := true; progress; {
		progress = false
		for name, v := range db.views {
			if db.dirty[name] {
				continue
			}
			for _, s := range v.sources {
				if changed[s] || db.dirty[s] {
					db.dirty[name] = true
					changed[name] = true
					progress = true
					break
				}
			}
		}
	}
}

// LoadTable bulk-inserts rows into a base table (marking dependent views
// stale). The engine takes ownership of the row tuples — they are stored
// by reference, not copied — so callers must not mutate them afterwards
// (in particular, do not reuse one row buffer across loop iterations).
//
// LoadTable does not commit through commitLocked, on purpose: it marks
// views dirty instead of running counted IVM, and it has no delta relation
// — building one would nearly double its cost (on a 2-vCPU Intel Xeon, a
// 10k-row load takes ~3.9 ms and an eval.Delta of the same rows another
// ~2.7 ms). Its changeset holds the inserted rows as they are. It keeps
// commitLocked's empty rule and shares logLocked, publishLocked and
// autoCheckpointLocked.
func (db *DB) LoadTable(name string, rows []value.Tuple) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.ro != nil {
		return db.readOnlyErrLocked()
	}
	decl, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	// Validate every row before inserting any: a mid-load failure must not
	// leave rows in the store that dependent views were never told about.
	for _, r := range rows {
		if len(r) != decl.Arity() {
			return fmt.Errorf("engine: row arity %d does not match table %q arity %d", len(r), name, decl.Arity())
		}
	}
	p := datalog.Pred(name)
	inserted := make([]value.Tuple, 0, len(rows))
	for _, r := range rows {
		if db.store.Insert(p, r) {
			inserted = append(inserted, r)
		}
	}
	if len(inserted) == 0 {
		return nil
	}
	// One bulk-load changeset holding only the new rows. The stale-view
	// fallback and the WAL cannot disagree: recovery likewise rebuilds
	// every view from the recovered base state.
	cs := wal.Changeset{Kind: wal.KindBulkLoad, Seq: db.seq + 1,
		Tables: []wal.TableDelta{{Name: name, Arity: decl.Arity(), Ins: inserted}}}
	if err := db.logLocked(&cs); err != nil {
		for _, r := range inserted {
			db.store.Delete(p, r)
		}
		return err
	}
	db.markDependentsDirty(map[string]bool{name: true})
	// Subscribers of the table get the exact inserted delta; subscribers
	// of the views just marked dirty are marked lost by publishLocked's
	// dirty scan (no view delta exists on this path) and resync instead of
	// silently diverging.
	db.publishLocked(&cs)
	db.autoCheckpointLocked()
	return nil
}

// Relations lists the registered base tables and views, sorted, with a
// kind marker ("table" or "view").
func (db *DB) Relations() []RelationInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []RelationInfo
	for name, d := range db.tables {
		out = append(out, RelationInfo{Name: name, Kind: "table", Decl: d})
	}
	for name, v := range db.views {
		out = append(out, RelationInfo{Name: name, Kind: "view", Decl: v.Decl, Incremental: v.Incremental})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RelationInfo describes one registered relation.
type RelationInfo struct {
	Name        string
	Kind        string // "table" or "view"
	Decl        *datalog.RelDecl
	Incremental bool // views only: running the ∂put program
}

// Store exposes the underlying evaluation database for benchmarks and
// tests. It is not synchronized; do not use it concurrently with other
// operations.
func (db *DB) Store() *eval.Database { return db.store }
