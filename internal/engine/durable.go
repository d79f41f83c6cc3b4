package engine

import (
	"fmt"
	"sort"
	"sync"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
	"birds/internal/wal"
)

// This file wires the write-ahead log (internal/wal) into the engine's
// write paths, giving the in-memory database crash-consistent durability:
//
//   - every point at which writes become visible appends one WAL record
//     BEFORE the write is acknowledged. commitLocked is that point for
//     every delta-driven write: a direct transaction (execTable), a
//     view-targeted transaction (applyPlan; the record holds the
//     base-table deltas its putback cascade produced) and a group-commit
//     batch (Batcher.flushLocked; ONE record per batch, so the fsync is
//     amortized across the batch exactly like the maintenance pass).
//     LoadTable writes a bulk-load record through the same logWrite;
//   - a failed append undoes the write in the store and the write reports
//     an error — the WAL never acknowledges a write the store didn't take,
//     and the store never keeps a write the WAL didn't take. The failed
//     append also poisoned the log (the fsyncgate rule: a file whose
//     page-cache state is unknown is never retried), so the engine
//     transitions to read-only degraded mode (degrade.go): reads keep
//     working, writes fail fast with ErrReadOnly until DB.Reopen recovers
//     from disk;
//   - periodic checkpoints snapshot the base tables plus the DDL catalog
//     and garbage-collect fully-covered WAL segments; views and their
//     support counts are NOT checkpointed — Recover re-derives them from
//     base state through the counted IVM initialization. Automatic
//     checkpoints run in the BACKGROUND: the trigger (under the write
//     lock) takes O(1) copy-on-write snapshots of the base tables and
//     rotates the log, then a goroutine encodes and persists them while
//     new appends land in the next segment — a checkpoint never stalls
//     writes for the duration of its disk I/O;
//   - Recover loads the latest valid checkpoint, replays the WAL tail
//     (skipping a torn trailing record, erroring on mid-log corruption)
//     and leaves the engine identical to an uninterrupted run over the
//     same acknowledged prefix of writes.
//
// All WAL appends happen under the engine write lock, which is what makes
// log order identical to commit order without any extra coordination.

// DefaultCheckpointEvery is the automatic-checkpoint trigger used when
// DurabilityOptions.CheckpointEvery is 0: a snapshot is taken (and covered
// segments removed) after this many WAL records.
const DefaultCheckpointEvery = 4096

// DurabilityOptions configures EnableDurability.
type DurabilityOptions struct {
	// Dir is the durability directory (WAL + checkpoints). Created if
	// absent; must not already hold durable state (recover that with
	// Recover instead).
	Dir string
	// Sync selects when the WAL is fsynced: wal.SyncOff (never),
	// wal.SyncOnCommit (every record) or wal.SyncOnFlush (group-commit
	// flush records only, amortizing one fsync across the batch).
	Sync wal.SyncMode
	// CheckpointEvery is the number of WAL records between automatic
	// checkpoints. 0 selects DefaultCheckpointEvery; negative disables
	// automatic checkpoints (explicit Checkpoint only).
	CheckpointEvery int
	// SegmentBytes is the WAL segment rotation threshold. 0 selects
	// wal.DefaultSegmentBytes; negative keeps one unbounded segment.
	SegmentBytes int64
	// FS, when non-nil, substitutes the filesystem behind every durable
	// file operation — the fault-injection seam (wal.FaultFS). nil is the
	// process filesystem.
	FS wal.FS
}

// durability is the engine-side durability state, guarded by db.mu (every
// write path already holds the write lock at its WAL hook) — except
// ckptWG, which Reopen/DisableDurability wait on WITHOUT holding db.mu
// (the background checkpoint goroutine takes db.mu to finish).
type durability struct {
	log       *wal.Log
	opts      DurabilityOptions
	sinceCkpt int   // records appended since the last checkpoint cut
	ckptErr   error // last automatic-checkpoint failure (retried, surfaced by Checkpoint)
	ckptBusy  bool  // a background checkpoint is writing
	ckptWG    sync.WaitGroup
	// cutLSN is the LSN of the newest checkpoint cut (after Recover, of the
	// checkpoint it loaded) and cutGens the generations taken at it: a new
	// cut at the same LSN takes the next generation, so its write never
	// renames over the live checkpoint file.
	cutLSN, cutGens uint64
}

// EnableDurability opens a write-ahead log in opts.Dir and takes an
// initial checkpoint of the current state (catalog plus base tables), so
// every subsequent write is recoverable. The directory must not already
// contain durable state — re-open that with Recover, which replays it.
func (db *DB) EnableDurability(opts DurabilityOptions) error {
	if opts.Dir == "" {
		return fmt.Errorf("engine: durability requires a directory")
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dur != nil {
		return fmt.Errorf("engine: durability already enabled (dir %s)", db.dur.opts.Dir)
	}
	if hasDurableState(opts.FS, opts.Dir) {
		return fmt.Errorf("engine: %s already holds durable state; use Recover", opts.Dir)
	}
	log, err := wal.Open(opts.FS, opts.Dir, 1, opts.SegmentBytes)
	if err != nil {
		return err
	}
	db.dur = &durability{log: log, opts: opts}
	if err := db.checkpointLocked(); err != nil {
		db.dur = nil
		log.Close()
		return fmt.Errorf("engine: initial checkpoint: %w", err)
	}
	return nil
}

// HasDurableState reports whether dir holds recoverable durable state (a
// checkpoint or a non-empty WAL): true means open the directory with
// Recover, false means a fresh EnableDurability is safe.
func HasDurableState(dir string) bool { return hasDurableState(nil, dir) }

// hasDurableState reports whether dir holds a checkpoint or a non-empty
// WAL (an unreadable checkpoint also counts — refusing is the safe side).
func hasDurableState(fsys wal.FS, dir string) bool {
	if ck, err := wal.LatestCheckpoint(fsys, dir); err != nil || ck != nil {
		return true
	}
	return wal.HasLogData(fsys, dir)
}

// Durable reports whether a write-ahead log is attached.
func (db *DB) Durable() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dur != nil
}

// LastLSN returns the log sequence number of the most recent WAL record
// (0 when none, or when durability is off). Diagnostics and tests.
func (db *DB) LastLSN() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.dur == nil {
		return 0
	}
	return db.dur.log.LastLSN()
}

// WALLog exposes the attached log for tests and benchmarks; nil when
// durability is off.
func (db *DB) WALLog() *wal.Log {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.dur == nil {
		return nil
	}
	return db.dur.log
}

// DisableDurability syncs and detaches the write-ahead log, waiting out
// any background checkpoint first. The directory remains recoverable
// (checkpoint + log tail). Detaching also clears read-only degraded mode:
// without a log there is nothing left to protect.
func (db *DB) DisableDurability() error {
	db.mu.Lock()
	d := db.dur
	db.dur = nil
	db.ro = nil
	db.mu.Unlock()
	if d == nil {
		return nil
	}
	d.ckptWG.Wait()
	return d.log.Close()
}

// Close syncs and detaches the write-ahead log. It flushes no batch: a
// Batcher handle's owner closes the handle first, or its staged
// transactions never reach the log. The DB remains usable as a purely
// in-memory engine afterwards.
func (db *DB) Close() error { return db.DisableDurability() }

// Checkpoint synchronously snapshots the base tables and the DDL catalog,
// then removes fully-covered WAL segments. If an earlier automatic
// checkpoint failed, the error surfaces here (the write it followed was
// durable regardless — the log still held every record).
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dur == nil {
		return fmt.Errorf("engine: durability is not enabled")
	}
	if db.ro != nil {
		return db.readOnlyErrLocked()
	}
	if err := db.checkpointLocked(); err != nil {
		return err
	}
	err := db.dur.ckptErr
	db.dur.ckptErr = nil
	return err
}

// ckptSnap is a checkpoint cut captured under the write lock: the catalog
// and an O(1) copy-on-write snapshot of every base table, stamped at the
// last LSN, plus the first LSN of the active segment after the cut's
// rotation — every sealed segment below it is garbage once the snapshot
// is durable. Encoding and persisting a ckptSnap needs no engine lock.
type ckptSnap struct {
	ck     *wal.Checkpoint
	rels   []*value.Relation // per-table COW snapshots, parallel to ck.Tables
	gcFrom uint64
}

// snapshotLocked cuts a checkpoint at the current last LSN: it rotates
// the log so the cut covers only sealed segments, captures the catalog,
// and snapshots every base table copy-on-write — O(tables), not O(rows).
// Must run under the write lock, at a point where the store contains the
// effects of every appended record (never between an append and its store
// apply).
func (db *DB) snapshotLocked() (*ckptSnap, error) {
	d := db.dur
	gcFrom, err := d.log.RotateForCheckpoint()
	if err != nil {
		return nil, err
	}
	ck := &wal.Checkpoint{
		LSN:             d.log.LastLSN(),
		Sync:            d.opts.Sync,
		CheckpointEvery: d.opts.CheckpointEvery,
		SegmentBytes:    d.opts.SegmentBytes,
	}
	if d.cutLSN != ck.LSN {
		d.cutLSN, d.cutGens = ck.LSN, 0
	}
	ck.Gen = d.cutGens
	d.cutGens++
	snap := &ckptSnap{ck: ck, gcFrom: gcFrom}
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		decl := db.tables[n]
		ts := wal.TableState{Name: n}
		for _, a := range decl.Attrs {
			ts.Attrs = append(ts.Attrs, wal.AttrState{Name: a.Name, Type: a.Type})
		}
		ck.Tables = append(ck.Tables, ts)
		snap.rels = append(snap.rels, db.store.RelOrEmpty(datalog.Pred(n), decl.Arity()).Snapshot())
	}
	// Views in dependency order (sources first), so recovery can re-create
	// them with every source already registered.
	for _, n := range db.viewOrder {
		v := db.views[n]
		vs := wal.ViewState{Program: v.Strategy.Prog.String(), Incremental: v.Incremental}
		for _, r := range v.Get {
			vs.Get = append(vs.Get, r.String())
		}
		ck.Views = append(ck.Views, vs)
	}
	return snap, nil
}

// persist encodes the snapshot's rows from its COW relations, writes the
// checkpoint atomically and removes the WAL segments it covers. It takes
// no engine locks: the background checkpoint path runs it concurrently
// with new writes.
func (d *durability) persist(s *ckptSnap) error {
	for i := range s.ck.Tables {
		rel := s.rels[i]
		rows := make([]value.Tuple, 0, rel.Len())
		rel.Each(func(t value.Tuple) { rows = append(rows, t) })
		s.ck.Tables[i].Rows = rows
	}
	if err := wal.WriteCheckpoint(d.opts.FS, d.opts.Dir, s.ck); err != nil {
		return err
	}
	// Covered segments are redundant now; removal failures only cost
	// replay skips on the next recovery.
	d.log.RemoveSegmentsBelow(s.gcFrom)
	return nil
}

// checkpointLocked cuts and persists a checkpoint synchronously, under
// the write lock. DDL, explicit Checkpoint, EnableDurability and Recover
// come through here; the automatic trigger uses the background path.
func (db *DB) checkpointLocked() error {
	snap, err := db.snapshotLocked()
	if err != nil {
		return err
	}
	if err := db.dur.persist(snap); err != nil {
		return err
	}
	db.dur.sinceCkpt = 0
	return nil
}

// commitLocked makes one write visible: it is the commit path of every
// delta-driven write (execTable, applyPlan, Batcher.flushLocked), whose
// caller has already applied changed — the write's exact net deltas — to
// the store; views in keep were updated exactly by the caller. In order:
// a write whose deltas are all empty is no visibility point and returns at
// once; one WAL record is appended (rendered only when durable), and a
// failed append undoes changed, view rows included; then the dependent
// views are maintained, every delta is published under one hub seq, and
// the checkpoint trigger runs. Must run under the write lock.
func (db *DB) commitLocked(kind wal.Kind, changed map[string]eval.Delta, keep map[string]bool) error {
	empty := true
	for _, d := range changed {
		if !d.Empty() {
			empty = false
			break
		}
	}
	if empty {
		return nil
	}
	if err := db.logWrite(kind, func() []wal.TableDelta { return db.walTableDeltas(changed) }); err != nil {
		db.undoLocked(changed)
		return err
	}
	db.maintainViews(changed, keep)
	db.publishLocked(changed)
	db.autoCheckpointLocked()
	return nil
}

// applyLocked applies exact net deltas to the store: every deletion and
// insertion changes it. Must run under the write lock.
func (db *DB) applyLocked(changed map[string]eval.Delta) {
	for n, d := range changed {
		p := datalog.Pred(n)
		d.Del.Each(func(t value.Tuple) { db.store.Delete(p, t) })
		d.Ins.Each(func(t value.Tuple) { db.store.Insert(p, t) })
	}
}

// undoLocked reverts deltas that were applied to the store: the rollback
// of a failed WAL append (commitLocked). Must run under the write lock.
func (db *DB) undoLocked(changed map[string]eval.Delta) {
	for n, d := range changed {
		p := datalog.Pred(n)
		d.Ins.Each(func(t value.Tuple) { db.store.Delete(p, t) })
		d.Del.Each(func(t value.Tuple) { db.store.Insert(p, t) })
	}
}

// logWrite appends one WAL record for a write that has just been applied
// to the store, fsyncing per the configured mode. body renders the record
// and is called only when durability is on. It must run under the engine
// write lock. On error nothing was acknowledged; the caller must roll its
// store changes back and fail the write — and the engine has transitioned
// to read-only degraded mode, because the log is poisoned (see
// degrade.go).
func (db *DB) logWrite(kind wal.Kind, body func() []wal.TableDelta) error {
	if db.ro != nil {
		return db.readOnlyErrLocked()
	}
	d := db.dur
	if d == nil {
		return nil
	}
	tables := body()
	if len(tables) == 0 {
		return nil
	}
	sync := false
	switch d.opts.Sync {
	case wal.SyncOnCommit:
		sync = true
	case wal.SyncOnFlush:
		sync = kind == wal.KindBatch
	}
	if _, err := d.log.Append(kind, tables, sync); err != nil {
		// The log poisoned itself; fail all further writes until Reopen.
		db.ro = err
		return fmt.Errorf("engine: wal append: %w", err)
	}
	d.sinceCkpt++
	return nil
}

// autoCheckpointLocked starts a background checkpoint when the
// record-count trigger is due: the cut (COW table snapshots + log
// rotation, O(tables)) happens here under the write lock, then a goroutine
// encodes and persists it while subsequent writes append to the fresh
// segment. Must run under the write lock, only after the store reflects
// every appended record. At most one background checkpoint runs at a time;
// a failure is retried on the next trigger and surfaced by the next
// explicit Checkpoint — the writes themselves are durable either way (the
// log still holds them).
func (db *DB) autoCheckpointLocked() {
	d := db.dur
	if d == nil || d.opts.CheckpointEvery <= 0 || d.sinceCkpt < d.opts.CheckpointEvery {
		return
	}
	if d.ckptBusy || db.ro != nil {
		return
	}
	snap, err := db.snapshotLocked()
	if err != nil {
		d.ckptErr = err
		return
	}
	prior := d.sinceCkpt
	d.sinceCkpt = 0
	d.ckptBusy = true
	d.ckptWG.Add(1)
	go func() {
		defer d.ckptWG.Done()
		err := d.persist(snap)
		db.mu.Lock()
		d.ckptBusy = false
		if err != nil {
			d.ckptErr = err
			d.sinceCkpt += prior // re-arm the trigger: the records are still uncovered
		}
		db.mu.Unlock()
	}()
}

// ddlCheckpointLocked persists a DDL change (CreateTable, CreateView) by
// taking a synchronous checkpoint — the catalog lives in checkpoints, not
// in WAL records. Must run under the write lock. Unlike automatic
// checkpoints the error is returned: a DDL statement whose catalog entry
// is not durable must fail (and be rolled back by the caller), or recovery
// would replay row records against a relation it does not know.
func (db *DB) ddlCheckpointLocked() error {
	if db.dur == nil {
		return nil
	}
	if db.ro != nil {
		return db.readOnlyErrLocked()
	}
	return db.checkpointLocked()
}

// walTableDeltas renders the base-table subset of a changed-relations map
// as a WAL record body, sorted by table name for determinism. View deltas
// are excluded: views are derived state, rebuilt from base tables on
// recovery.
func (db *DB) walTableDeltas(changed map[string]eval.Delta) []wal.TableDelta {
	names := make([]string, 0, len(changed))
	for n := range changed {
		if _, ok := db.tables[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]wal.TableDelta, 0, len(names))
	for _, n := range names {
		d := changed[n]
		out = append(out, wal.TableDelta{
			Name:  n,
			Arity: db.tables[n].Arity(),
			Ins:   d.Ins.Tuples(),
			Del:   d.Del.Tuples(),
		})
	}
	return out
}

// --- recovery -------------------------------------------------------------

// RecoverStats summarizes a recovery.
type RecoverStats struct {
	// CheckpointLSN is the LSN of the loaded checkpoint (0 for the initial
	// one).
	CheckpointLSN uint64
	// LastLSN is the LSN of the last WAL record applied; LastLSN -
	// CheckpointLSN records were replayed from the log tail.
	LastLSN uint64
	// Replayed counts the WAL records applied on top of the checkpoint.
	Replayed int
	// TornTail reports that the WAL ended in a torn (unacknowledged)
	// record, which was skipped.
	TornTail bool
}

// Recover rebuilds a database from the durable state in dir: it loads the
// latest valid checkpoint, replays the WAL segments after it (skipping a
// torn trailing record — an append the crashed process never acknowledged
// — and erroring on mid-log corruption), re-creates the views from the
// checkpointed catalog and re-derives their materializations AND support
// counts from base state through the counted IVM initialization. The
// returned engine has durability re-enabled on dir (with the checkpointed
// durability options restored) and is identical, relation for relation and
// count for count, to an uninterrupted run over the same acknowledged
// writes. Process settings — parallelism, execution mode, group-commit
// handles — are not durable state: the recovered engine starts at the
// defaults, and its caller re-applies its own.
func Recover(dir string) (*DB, RecoverStats, error) { return RecoverFS(nil, dir) }

// RecoverFS is Recover through an injected filesystem (nil = the process
// filesystem); the recovered engine keeps using it for all durable I/O.
func RecoverFS(fsys wal.FS, dir string) (*DB, RecoverStats, error) {
	var stats RecoverStats
	ck, err := wal.LatestCheckpoint(fsys, dir)
	if err != nil {
		return nil, stats, err
	}
	if ck == nil {
		if !wal.HasLogData(fsys, dir) {
			return nil, stats, fmt.Errorf("engine: no durable state in %s", dir)
		}
		// A log without any checkpoint can only be the leftover of a crash
		// inside EnableDurability, before the initial checkpoint landed;
		// no write was ever acknowledged against it.
		ck = &wal.Checkpoint{}
	}
	stats.CheckpointLSN = ck.LSN

	db := NewDB()

	// Base tables: schema from the catalog, rows from the snapshot.
	for _, ts := range ck.Tables {
		decl := &datalog.RelDecl{Name: ts.Name}
		for _, a := range ts.Attrs {
			decl.Attrs = append(decl.Attrs, datalog.AttrDecl{Name: a.Name, Type: a.Type})
		}
		if err := db.CreateTable(decl); err != nil {
			return nil, stats, fmt.Errorf("engine: recover table %q: %w", ts.Name, err)
		}
		p := datalog.Pred(ts.Name)
		for _, row := range ts.Rows {
			db.store.Insert(p, row)
		}
	}

	// WAL tail: net row deltas on top of the checkpointed base state.
	res, err := wal.Replay(fsys, dir, ck.LSN, func(rec *wal.Record) error {
		for _, td := range rec.Tables {
			decl, ok := db.tables[td.Name]
			if !ok {
				return fmt.Errorf("engine: wal record %d targets unknown table %q", rec.LSN, td.Name)
			}
			if decl.Arity() != td.Arity {
				return fmt.Errorf("engine: wal record %d: table %q arity %d, catalog says %d",
					rec.LSN, td.Name, td.Arity, decl.Arity())
			}
			p := datalog.Pred(td.Name)
			for _, t := range td.Del {
				db.store.Delete(p, t)
			}
			for _, t := range td.Ins {
				db.store.Insert(p, t)
			}
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	stats.LastLSN = res.Last
	stats.Replayed = res.Replayed
	stats.TornTail = res.TornTail

	// Views: re-create from the catalog (validation already ran in the
	// original session — the checkpointed get rules carry its result),
	// then initialize the counting IVM over the recovered base state, so
	// the engine resumes on the incremental path with exactly the support
	// counts an uninterrupted run would hold.
	for _, vs := range ck.Views {
		prog, err := datalog.Parse(vs.Program)
		if err != nil {
			return nil, stats, fmt.Errorf("engine: recover view program: %w", err)
		}
		var get []*datalog.Rule
		for _, g := range vs.Get {
			r, err := datalog.ParseRule(g)
			if err != nil {
				return nil, stats, fmt.Errorf("engine: recover get rule %q: %w", g, err)
			}
			get = append(get, r)
		}
		if _, err := db.CreateViewFromProgram(prog, ViewOptions{
			SkipValidation: true,
			ExpectedGet:    get,
			Incremental:    vs.Incremental,
		}); err != nil {
			return nil, stats, fmt.Errorf("engine: recover view: %w", err)
		}
	}
	for _, n := range db.viewOrder {
		v := db.views[n]
		if _, err := v.getEval.EvalDelta(db.store, nil); err != nil {
			// Counted init failed; leave the view on the full-refresh
			// fallback (it is already materialized and clean).
			v.getEval.InvalidateIVM()
			continue
		}
		for _, w := range v.getOverlap {
			w.getEval.InvalidateIVM()
		}
	}

	// Re-attach the log where the replay ended and take a fresh
	// checkpoint: the torn tail (if any) is discarded for good, and the
	// next crash recovers from here.
	opts := DurabilityOptions{
		Dir:             dir,
		Sync:            ck.Sync,
		CheckpointEvery: ck.CheckpointEvery,
		SegmentBytes:    ck.SegmentBytes,
		FS:              fsys,
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	log, err := wal.Open(fsys, dir, res.Last+1, ck.SegmentBytes)
	if err != nil {
		return nil, stats, err
	}
	db.mu.Lock()
	db.dur = &durability{log: log, opts: opts, cutLSN: ck.LSN, cutGens: ck.Gen + 1}
	if err := db.checkpointLocked(); err != nil {
		db.dur = nil
		db.mu.Unlock()
		log.Close()
		return nil, stats, fmt.Errorf("engine: post-recovery checkpoint: %w", err)
	}
	db.mu.Unlock()

	return db, stats, nil
}
