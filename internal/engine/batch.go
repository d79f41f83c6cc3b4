package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
	"birds/internal/wal"
)

// errBatcherClosed is returned by a closed Batcher handle.
var errBatcherClosed = errors.New("engine: batcher is closed")

// This file is the group-commit write pipeline: a Batcher admits table
// transactions without taking the engine's exclusive lock, stages their
// validated net row deltas in a coalesced per-table buffer (an insert
// cancelling a staged delete nets out, no-op statements contribute
// nothing), and flushes the whole buffer as ONE view-maintenance pass —
// so N writes cost one delta propagation instead of N. PR 3 made every
// write O(|Δ|); batching amortizes the per-pass fixed cost (per-view
// EvalDelta invocation, delta bookkeeping, lock traffic) across the batch,
// and hands the maintenance pass a wide coalesced delta the parallel
// propagation path of internal/eval can fan out across workers.
//
// Consistency contract (group commit):
//
//   - Admission is atomic per transaction: a statement error (bad arity,
//     unknown column) stages nothing of that transaction; the rest of the
//     batch is unaffected.
//   - Readers (Get, GetAll, Rel) observe only fully-flushed batches.
//     Staged transactions live outside the store until flush, and the
//     flush applies the whole batch — base rows plus the incremental
//     maintenance of every dependent view — under the engine's write lock,
//     so a copy-on-write snapshot taken at any moment holds either none or
//     all of a batch, never a partial one.
//   - Admitting transactions t1..tn and flushing is equivalent to executing
//     t1..tn serially one-at-a-time, by construction: admission derives
//     each transaction's net delta with the same txnDelta (dml.go) that
//     DB.Exec uses, run against the last flushed state overlaid with the
//     staged delta — exactly the state serial execution would have reached.
//     The differential harness in batch_test.go checks both paths against a
//     naive model.
//   - View-targeted transactions and reads of the engine bypass staging:
//     a view update first flushes the pending batch (its trigger must
//     evaluate against flushed state), then runs the normal propagation
//     path. Writes that bypass the handle (DB.Exec, LoadTable, another
//     handle) serialize at the flush point: the flush re-checks every
//     staged row against the store, so views are still maintained with
//     exact net deltas, but statement matching of already-admitted
//     transactions will not have seen those writes.
//
// Lock discipline: admissions serialize on the batcher's own mutex and
// run txnDelta under the engine's read lock (it probes existing hash
// indexes read-only and falls back to a scan; a missed index is built
// after admission under the write lock), so admissions run concurrently
// with readers and never pay the maintenance lock; only the flush and those
// index builds take the engine write lock. Lock order is always batcher.mu →
// engine.mu.

// DefaultBatchSize is the size trigger used when BatchOptions.MaxTxns is 0.
const DefaultBatchSize = 64

// BatchOptions configures a Batcher.
type BatchOptions struct {
	// MaxTxns flushes the batch when this many transactions have been
	// admitted since the last flush. 0 selects DefaultBatchSize; negative
	// disables the size trigger (flush on interval or explicitly).
	MaxTxns int
	// FlushInterval, when positive, flushes a non-empty batch this long
	// after its first admission, bounding the staleness a batched write
	// can have for readers.
	FlushInterval time.Duration
}

// Batcher is a group-commit handle on a DB: Exec admits transactions into
// the current batch, Flush propagates the coalesced batch as one
// view-maintenance pass. Safe for concurrent use.
type Batcher struct {
	db   *DB
	opts BatchOptions

	mu sync.Mutex
	// stage holds the coalesced per-table net deltas of the batch in
	// flight, as relations Ins(t)/Del(t) in a private eval.Database —
	// which maintains hash indexes over them incrementally, so statement
	// matching probes the staged rows in O(1) instead of scanning them
	// (the difference between O(1) and O(batch) per admission).
	stage    *eval.Database
	staged   map[string]int // tables with staged deltas → arity
	txns     int            // transactions admitted since the last flush
	timer    *time.Timer
	armed    bool
	deadline time.Time // when the armed interval trigger is due
	closed   bool

	// ticket is the commit handle of the batch in flight: every admitted
	// transaction shares it, and the flush that applies (or fails) the
	// batch resolves it. Created lazily at the first admission after a
	// flush; nil while no transaction is staged.
	ticket *flushTicket

	// Counters behind Stats(). seq is the admission sequence number: it
	// increments under b.mu for every successfully admitted (or, for view
	// targets, directly executed) transaction, so it is exactly the
	// serialization order the group-commit contract promises — replaying
	// transactions in seq order on a fresh engine reproduces the state.
	seq           uint64
	admitted      uint64 // table transactions admitted into batches
	direct        uint64 // view-targeted transactions (flush + direct path)
	flushes       uint64 // flushes that had at least one staged transaction
	flushedTxns   uint64 // transactions carried by those flushes
	flushedRows   uint64 // net delta rows applied by those flushes
	coalescedRows uint64 // staged rows cancelled or pruned before apply
	stagedRows    uint64 // rows contributed by the batch in flight
}

// BatcherStats is a snapshot of a Batcher's counters (see Stats). The
// server marshals it as the "batcher" object of GET /stats.
type BatcherStats struct {
	// Admitted counts table transactions admitted into batches; Direct
	// counts view-targeted transactions, which flush the pending batch and
	// run the unbatched propagation path. Seq is the admission sequence
	// number of the most recent transaction (Admitted + Direct).
	Admitted uint64 `json:"admitted"`
	Direct   uint64 `json:"direct"`
	Seq      uint64 `json:"seq"`
	// Flushes counts flushes that carried at least one transaction;
	// FlushedTxns the transactions those flushes applied; FlushedRows the
	// net delta rows they handed to view maintenance; CoalescedRows the
	// staged rows that cancelled against each other (or were pruned
	// against the store) and therefore never cost a maintenance pass.
	Flushes       uint64 `json:"flushes"`
	FlushedTxns   uint64 `json:"flushed_txns"`
	FlushedRows   uint64 `json:"flushed_rows"`
	CoalescedRows uint64 `json:"coalesced_rows"`
	// Pending is the current queue depth: transactions admitted since the
	// last flush.
	Pending int `json:"pending"`
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BatcherStats{
		Admitted:      b.admitted,
		Direct:        b.direct,
		Seq:           b.seq,
		Flushes:       b.flushes,
		FlushedTxns:   b.flushedTxns,
		FlushedRows:   b.flushedRows,
		CoalescedRows: b.coalescedRows,
		Pending:       b.txns,
	}
}

// flushTicket is the shared commit handle of one batch: done closes when the
// batch's flush completes, with err set write-once before the close.
type flushTicket struct {
	done chan struct{}
	err  error
}

// resolvedTicket builds an already-resolved ticket carrying err.
func resolvedTicket(err error) *flushTicket {
	t := &flushTicket{done: make(chan struct{}), err: err}
	close(t.done)
	return t
}

// Commit is the flush handle an admitted transaction can wait on: Done
// closes when the batch holding the transaction has been flushed (its WAL
// record appended and its effects visible to readers), Err reports the
// flush outcome and is valid only after Done. A flush error means the
// transaction was NOT acknowledged — it stays staged and may still commit
// with a later flush retry, so callers must treat it as indeterminate.
type Commit struct{ t *flushTicket }

// Done returns a channel that closes when the transaction's batch has been
// flushed.
func (c Commit) Done() <-chan struct{} { return c.t.done }

// Err reports the flush outcome; call it only after Done is closed.
func (c Commit) Err() error { return c.t.err }

// Wait blocks until the transaction's batch is flushed and returns the
// flush outcome.
func (c Commit) Wait() error {
	<-c.t.done
	return c.t.err
}

// resolveTicketLocked resolves the current batch's commit handle, if any
// transaction is waiting on it. Must be called with b.mu held.
func (b *Batcher) resolveTicketLocked(err error) {
	if b.ticket == nil {
		return
	}
	b.ticket.err = err
	close(b.ticket.done)
	b.ticket = nil
}

// Batch returns a new group-commit handle on the database: transactions
// admitted through it are staged until its Flush/Close (or its
// size/interval triggers), while db.Exec keeps committing directly. The
// handle's owner must Close it before closing the DB — DB.Close knows
// nothing of handles and flushes no batch.
func (db *DB) Batch(opts BatchOptions) *Batcher {
	if opts.MaxTxns == 0 {
		opts.MaxTxns = DefaultBatchSize
	}
	return &Batcher{db: db, opts: opts, stage: eval.NewDatabase(), staged: make(map[string]int)}
}

// Exec admits one transaction into the current batch. Table transactions
// are validated and staged (visible to later admissions, invisible to
// readers until flush); the batch flushes when the size or interval
// trigger fires, or on Flush/Close. A view-targeted transaction flushes
// the pending batch first and then runs the unbatched propagation path.
// Statement errors roll back only this transaction's staged contribution.
//
// Exec acknowledges admission, not commit: the transaction's effects (and,
// with durability enabled, its WAL record) land at the batch's flush. It
// surfaces a flush error only when the admission itself triggered the
// flush; callers that must not acknowledge a write before it is flushed —
// a network server under the durability contract — use ExecWait.
func (b *Batcher) Exec(stmts ...Statement) error {
	_, c, err := b.ExecAsync(stmts...)
	if err != nil {
		return err
	}
	select {
	case <-c.Done(): // this admission flushed the batch (or ran direct)
		return c.Err()
	default: // staged; a later trigger will flush
		return nil
	}
}

// ExecWait admits one transaction like Exec, then blocks until the batch
// holding it has flushed — so a nil return means the transaction is applied,
// visible to readers, and (with durability enabled) in the write-ahead log,
// fsynced per the configured mode. It returns the transaction's admission
// sequence number: replaying transactions in sequence order on a fresh
// engine reproduces the database state (the group-commit serialization
// contract, pinned by the server's differential harness).
func (b *Batcher) ExecWait(stmts ...Statement) (uint64, error) {
	seq, c, err := b.ExecAsync(stmts...)
	if err != nil {
		return seq, err
	}
	return seq, c.Wait()
}

// ExecAsync admits one transaction and returns without waiting for the
// flush: seq is the admission sequence number and c the commit handle to
// wait on. A non-nil err means the transaction was rejected (statement
// error, unknown relation, closed batcher) and nothing was staged; c then
// carries the same error, already resolved. For a view-targeted
// transaction — which flushes the batch and runs the direct path — and for
// an admission that itself triggered the size flush, c is already resolved
// on return.
func (b *Batcher) ExecAsync(stmts ...Statement) (seq uint64, c Commit, err error) {
	fail := func(err error) (uint64, Commit, error) {
		return 0, Commit{t: resolvedTicket(err)}, err
	}
	if len(stmts) == 0 {
		return 0, Commit{t: resolvedTicket(nil)}, nil
	}
	if err := oneTarget(stmts); err != nil {
		return fail(err)
	}
	target := stmts[0].Target

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fail(errBatcherClosed)
	}

	db := b.db
	db.mu.RLock()
	var roErr error
	if db.ro != nil {
		roErr = db.readOnlyErrLocked()
	}
	decl, isTable := db.tables[target]
	_, isView := db.views[target]
	db.mu.RUnlock()
	if roErr != nil {
		// Degraded mode: fail fast at admission rather than staging work
		// that the flush would reject anyway.
		return fail(roErr)
	}
	switch {
	case isTable:
	case isView:
		// View updates must evaluate their trigger against flushed state,
		// and their putback plan applies (and maintains views) immediately.
		if err := b.flushLocked(); err != nil {
			return fail(err)
		}
		if err := db.Exec(stmts...); err != nil {
			return fail(err)
		}
		b.seq++
		b.direct++
		return b.seq, Commit{t: resolvedTicket(nil)}, nil
	default:
		return fail(fmt.Errorf("engine: unknown relation %q", target))
	}

	rows, err := b.admitTable(target, decl, stmts)
	if err != nil {
		return fail(err)
	}
	b.txns++
	b.seq++
	b.admitted++
	b.stagedRows += uint64(rows)
	seq = b.seq
	if b.ticket == nil {
		b.ticket = &flushTicket{done: make(chan struct{})}
	}
	c = Commit{t: b.ticket}
	if b.opts.MaxTxns > 0 && b.txns >= b.opts.MaxTxns {
		// The flush resolves c (with its error, if any); admission itself
		// succeeded, so err stays nil.
		_ = b.flushLocked()
		return seq, c, nil
	}
	b.armTimerLocked()
	return seq, c, nil
}

// Pending reports the number of transactions admitted since the last flush.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.txns
}

// Flush applies the staged batch: base-table rows enter the store and every
// dependent view is maintained incrementally in ONE pass over the coalesced
// net delta, all under the engine write lock, so readers switch from the
// pre-batch to the post-batch state atomically.
func (b *Batcher) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked()
}

// Close flushes the pending batch and permanently closes the handle.
func (b *Batcher) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	err := b.flushLocked()
	b.closed = true
	return err
}

// Discard drops the staged batch without flushing it and closes the
// handle. The staged transactions were never WAL-logged, so dropping them
// keeps the store and the log in agreement — this is the degraded-mode
// retirement path: the handle's owner discards it before DB.Reopen, since
// flushing is impossible while the engine is read-only. A pending
// commit ticket resolves with cause (errBatcherClosed when nil), so
// waiters learn their transactions were not applied.
func (b *Batcher) Discard(cause error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.disarmTimerLocked()
	if b.txns > 0 {
		if cause == nil {
			cause = errBatcherClosed
		}
		b.resolveTicketLocked(fmt.Errorf("engine: batch discarded before flush: %w", cause))
	} else {
		b.resolveTicketLocked(nil)
	}
	b.stage = eval.NewDatabase()
	b.staged = make(map[string]int)
	b.txns = 0
	b.stagedRows = 0
	b.closed = true
}

// flushLocked is Flush with b.mu held: it prunes the staged deltas
// against the store, applies them and commits them (commitLocked) as one
// visibility point. It resolves the batch's commit handle: with nil once
// the batch is applied and visible, or with the WAL append error when the
// flush failed — the store is then undone and the batch stays staged, so
// waiters that saw the error must treat their transactions as
// indeterminate (a later flush retries the identical batch).
func (b *Batcher) flushLocked() error {
	b.disarmTimerLocked()
	if b.txns == 0 {
		b.resolveTicketLocked(nil)
		return nil
	}
	names := make([]string, 0, len(b.staged))
	for n := range b.staged {
		names = append(names, n)
	}
	sort.Strings(names)

	db := b.db
	db.mu.Lock()
	defer db.mu.Unlock()

	// Prune: make the staged deltas exact against the current store,
	// dropping rows a direct writer preempted between admission and flush
	// (a staged delete of a row no longer present, a staged insert of a row
	// now present). In the common case nothing is pruned and the staged
	// relations themselves become the delta (the stage gets fresh ones once
	// the batch commits).
	changed := make(map[string]eval.Delta, len(names))
	var pruned []value.Tuple
	for _, n := range names {
		arity := b.staged[n]
		rel := db.store.RelOrEmpty(datalog.Pred(n), arity)
		ins := b.stage.RelOrEmpty(datalog.Ins(n), arity)
		del := b.stage.RelOrEmpty(datalog.Del(n), arity)
		pruned = pruned[:0]
		del.Each(func(t value.Tuple) {
			if !rel.Contains(t) {
				pruned = append(pruned, t)
			}
		})
		for _, t := range pruned {
			del.Remove(t)
		}
		pruned = pruned[:0]
		ins.Each(func(t value.Tuple) {
			if rel.Contains(t) {
				pruned = append(pruned, t)
			}
		})
		for _, t := range pruned {
			ins.Remove(t)
		}
		if !ins.Empty() || !del.Empty() {
			changed[n] = eval.Delta{Ins: ins, Del: del}
		}
	}

	// Apply (every row applies: the prune checked it under this same write
	// lock), then commit the whole batch as ONE WAL record — one fsync per
	// batch, not per transaction — and one maintenance pass. A failed
	// append leaves the store undone and the batch staged for a retry.
	var net uint64
	for _, d := range changed {
		net += uint64(d.Ins.Len() + d.Del.Len())
	}
	db.applyLocked(changed)
	if err := db.commitLocked(wal.KindBatch, changed, nil); err != nil {
		b.resolveTicketLocked(err)
		return err
	}

	// Reset the staged relations through Update, which keeps their hot
	// probe indexes alive (rebuilt over the empty relation) for the next
	// batch's admissions; the old relations live on as the delta.
	for _, n := range names {
		arity := b.staged[n]
		b.stage.Update(datalog.Ins(n), value.NewRelation(arity))
		b.stage.Update(datalog.Del(n), value.NewRelation(arity))
	}
	clear(b.staged)
	b.flushes++
	b.flushedTxns += uint64(b.txns)
	b.flushedRows += net
	b.coalescedRows += b.stagedRows - net
	b.stagedRows = 0
	b.txns = 0
	b.resolveTicketLocked(nil)
	return nil
}

// armTimerLocked starts the interval trigger for the batch in flight.
func (b *Batcher) armTimerLocked() {
	if b.opts.FlushInterval <= 0 || b.armed || b.txns == 0 {
		return
	}
	b.armed = true
	b.deadline = time.Now().Add(b.opts.FlushInterval)
	if b.timer == nil {
		b.timer = time.AfterFunc(b.opts.FlushInterval, b.timerFlush)
		return
	}
	b.timer.Reset(b.opts.FlushInterval)
}

// timerFlush is the interval trigger's callback. A firing can be stale:
// the timer may have gone off for an earlier batch just as it was being
// disarmed (Stop reports the miss but cannot recall the callback), in
// which case a later arm's Reset leaves this invocation pending alongside
// the rescheduled one. The deadline check makes stale firings reschedule
// to the live batch's due time instead of flushing it early.
func (b *Batcher) timerFlush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || !b.armed {
		return
	}
	if d := time.Until(b.deadline); d > 0 {
		b.timer.Reset(d)
		return
	}
	b.armed = false
	// A flush fails only when its WAL append fails; flushLocked has then
	// resolved the batch's commit handle with that error, which is where
	// the waiters see it.
	_ = b.flushLocked()
}

// disarmTimerLocked stops the interval trigger, if armed.
func (b *Batcher) disarmTimerLocked() {
	if b.timer != nil && b.armed {
		b.timer.Stop()
	}
	b.armed = false
}

// admitTable validates and stages one table transaction: txnDelta runs
// its statements under the engine read lock against the last flushed store
// overlaid with the staged batch, and the resulting net delta merges into
// the stage only if every statement succeeded. A store index a probe missed
// is built afterwards under the write lock. It returns the number of net
// delta rows the transaction contributed (before cross-transaction
// cancellation), which feeds the coalescing counters behind Stats.
func (b *Batcher) admitTable(name string, decl *datalog.RelDecl, stmts []Statement) (int, error) {
	db := b.db
	db.mu.RLock()
	l, miss, err := db.txnDelta(name, decl, stmts, b.stage)
	db.mu.RUnlock()
	if err != nil {
		return 0, err // nothing staged: per-transaction rollback
	}
	if len(miss) > 0 {
		db.mu.Lock()
		db.indexLocked(name, miss)
		db.mu.Unlock()
	}

	// Merge the transaction's delta into the staged batch, cancelling
	// insert/delete pairs across transactions. Insert/Delete on the stage
	// maintain its probe indexes incrementally.
	insP, delP := datalog.Ins(name), datalog.Del(name)
	l.Del.Each(func(t value.Tuple) {
		if !b.stage.Delete(insP, t) {
			b.stage.Insert(delP, t)
		}
	})
	l.Ins.Each(func(t value.Tuple) {
		if !b.stage.Delete(delP, t) {
			b.stage.Insert(insP, t)
		}
	})
	if !l.Empty() {
		b.staged[name] = decl.Arity()
	}
	return l.Ins.Len() + l.Del.Len(), nil
}
