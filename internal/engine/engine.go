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
	"errors"
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
// lock. Reads of relations (Get, GetAll, SnapshotAt, Subscribe, Relations)
// share one protocol (see read) and return snapshots or row counts, never a
// live relation. They run concurrently under a read lock, except that a
// stale view upgrades to the write lock, because rematerialization mutates
// the store.
type DB struct {
	mu        sync.RWMutex
	store     *eval.Database
	tables    map[string]*datalog.RelDecl
	views     map[string]*View
	dirty     map[string]bool // views whose materialization is stale
	viewOrder []string        // views in dependency order (sources first); rebuilt on CreateView

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
		if v.consEval, err = eval.New(namespaced(core.DeltaConstraintProgram(prog), putNS(name))); err != nil {
			return nil, err
		}
	} else if v.putEval, err = eval.New(namespaced(prog, putNS(name))); err != nil {
		return nil, fmt.Errorf("engine: strategy for %q: %w", name, err)
	}
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

// Explain renders the plans a write to the named view runs (its ∂put, or
// its putdelta when not incremental) as picked against the store now. It
// takes the write lock: explaining uses the evaluator's scratch state.
func (db *DB) Explain(view string) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	v, ok := db.views[view]
	if !ok {
		return "", fmt.Errorf("engine: unknown view %q", view)
	}
	if v.Incremental {
		return v.incEval.Explain(db.store), nil
	}
	return v.putEval.Explain(db.store), nil
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

// errStale ends read's read-locked pass at a stale view.
var errStale = errors.New("engine: stale view")

// read is the engine's one read protocol. It runs fn over a consistent cut
// of the database: every relation fn resolves through rel comes from the
// same lock acquisition, so no transaction (in particular no group-commit
// flush) lands between two of them, and a view agrees exactly with the
// base tables it derives from — the atomic-visibility contract the
// server's torn-batch checker pins down.
//
// fn first runs under the read lock, so readers of tables and clean views
// do not serialize. If it reaches a stale view it runs again from the
// start under the write lock, where rel refreshes stale views
// (rematerialization mutates the store). A relation rel returns is live:
// fn must snapshot it, or read only its size, before it returns.
func (db *DB) read(fn func(rel func(name string) (*value.Relation, error)) error) error {
	db.mu.RLock()
	err := fn(func(name string) (*value.Relation, error) {
		if db.dirty[name] {
			return nil, errStale
		}
		return db.relLocked(name)
	})
	db.mu.RUnlock()
	if !errors.Is(err, errStale) {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return fn(db.relLocked)
}

// relLocked resolves a table or view, rematerializing a stale view first,
// and returns its live relation, which later transactions mutate in place.
// The caller holds the write lock (the read lock suffices for a relation
// that is not stale) and snapshots the result before releasing it.
func (db *DB) relLocked(name string) (*value.Relation, error) {
	d := db.relDecl(name)
	if d == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", name)
	}
	if db.dirty[name] {
		if err := db.refresh(name); err != nil {
			return nil, err
		}
	}
	return db.store.RelOrEmpty(datalog.Pred(name), d.Arity()), nil
}

// Get returns an immutable snapshot of the current contents of a table or
// view (recomputing a stale view first). Taking the snapshot is O(1) — it
// shares the relation's storage copy-on-write, so no tuples are copied on
// the read path — and the snapshot keeps observing exactly the state at
// the time of the call: later transactions quietly divert the live
// relation onto private storage before mutating it. Snapshots are safe to
// iterate concurrently with writers; do not mutate them.
func (db *DB) Get(name string) (*value.Relation, error) {
	r, _, err := db.SnapshotAt(name)
	return r, err
}

// GetAll returns immutable snapshots of several relations taken under ONE
// lock acquisition (see read), so the returned map is a mutually
// consistent cut of the database. Each snapshot is O(1) copy-on-write,
// like Get's.
func (db *DB) GetAll(names ...string) (map[string]*value.Relation, error) {
	out := make(map[string]*value.Relation, len(names))
	err := db.read(func(rel func(string) (*value.Relation, error)) error {
		for _, n := range names {
			r, err := rel(n)
			if err != nil {
				return err
			}
			out[n] = r.Snapshot()
		}
		return nil
	})
	if err != nil {
		return nil, err
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
// kind marker ("table" or "view") and a row count. The counts are one
// consistent cut (see read) and take no snapshot, so they leave every
// relation's storage unshared: the next write to it copies nothing. A
// stale view is rematerialized to be counted.
func (db *DB) Relations() ([]RelationInfo, error) {
	var out []RelationInfo
	err := db.read(func(rel func(string) (*value.Relation, error)) error {
		out = out[:0]
		add := func(info RelationInfo) error {
			r, err := rel(info.Name)
			if err != nil {
				return err
			}
			info.Rows = r.Len()
			out = append(out, info)
			return nil
		}
		for name, d := range db.tables {
			if err := add(RelationInfo{Name: name, Kind: "table", Decl: d}); err != nil {
				return err
			}
		}
		for name, v := range db.views {
			if err := add(RelationInfo{Name: name, Kind: "view", Decl: v.Decl, Incremental: v.Incremental}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// RelationInfo describes one registered relation.
type RelationInfo struct {
	Name        string
	Kind        string // "table" or "view"
	Decl        *datalog.RelDecl
	Incremental bool // views only: running the ∂put program
	Rows        int  // number of tuples
}

// Store exposes the underlying evaluation database for benchmarks and
// tests. It is not synchronized; do not use it concurrently with other
// operations.
func (db *DB) Store() *eval.Database { return db.store }
