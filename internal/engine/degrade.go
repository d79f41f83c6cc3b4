package engine

import (
	"errors"
	"fmt"
)

// Read-only degraded mode.
//
// When a durable write fails (WAL append, fsync, segment rotation), the
// log has poisoned itself — the fsyncgate rule: after a failed write or
// fsync the kernel may have dropped the dirty pages while keeping the file
// position, so retrying the append could silently skip bytes. The engine
// therefore stops accepting writes entirely: the in-flight write was
// undone in the store (by commitLocked, or by LoadTable for a bulk load),
// so the store never keeps a write the WAL didn't take; every later write
// fails fast with ErrReadOnly while reads, snapshots and view queries keep
// being served from the intact in-memory state.
//
// The only way back is DB.Reopen: it discards the in-memory state and the
// poisoned log handle, re-runs recovery from the durable files (which
// contain exactly the acknowledged writes), and swaps the recovered state
// in. If the disk is still failing, Reopen fails and the engine stays
// degraded — still serving reads.

// ErrReadOnly is returned (wrapped) by every write path while the engine
// is in read-only degraded mode. Test with errors.Is.
var ErrReadOnly = errors.New("engine: read-only (degraded after storage failure)")

// ReadOnly returns the storage failure that forced read-only degraded
// mode, or nil when the engine accepts writes.
func (db *DB) ReadOnly() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ro
}

// readOnlyErrLocked renders the degraded-mode error, wrapping ErrReadOnly
// around the root cause. Callers hold db.mu (read or write).
func (db *DB) readOnlyErrLocked() error {
	return fmt.Errorf("%w: %v", ErrReadOnly, db.ro)
}

// Reopen recovers the engine from its own durability directory after a
// storage failure forced read-only degraded mode: it waits out any
// background checkpoint, discards the in-memory state and the poisoned
// log, re-runs recovery from disk (checkpoint + WAL tail — the
// acknowledged writes, plus a write reported as wal.ErrOutcomeUnknown,
// whose complete record replays), and swaps the recovered state in, re-arming
// durability and clearing degraded mode. The recovered views carry fresh
// evaluators, compiled from the durable catalog. Group-commit handles are
// not the engine's: their owner discards them before Reopen (nothing they
// staged was logged) and creates fresh ones after. On failure the engine
// stays degraded (reads keep working) and Reopen can be retried.
func (db *DB) Reopen() error {
	db.mu.Lock()
	if db.dur == nil {
		db.mu.Unlock()
		return fmt.Errorf("engine: reopen: durability is not enabled")
	}
	if db.ro == nil {
		db.mu.Unlock()
		return fmt.Errorf("engine: reopen: engine is not in read-only mode")
	}
	if db.reopening {
		db.mu.Unlock()
		return fmt.Errorf("engine: reopen already in progress")
	}
	db.reopening = true
	d, seq := db.dur, db.seq
	db.mu.Unlock()

	fail := func(err error) error {
		db.mu.Lock()
		db.reopening = false
		db.mu.Unlock()
		return err
	}

	// Wait for any in-flight background checkpoint without holding db.mu
	// (its goroutine takes db.mu to finish).
	d.ckptWG.Wait()

	d.log.Close() // poisoned: Close skips the sync, just releases the fd

	db2, _, err := recoverFS(d.opts.FS, d.opts.Dir, seq)
	if err != nil {
		return fail(fmt.Errorf("engine: reopen: %w", err))
	}

	db.mu.Lock()
	db.store = db2.store
	db.tables = db2.tables
	db.views = db2.views
	db.dirty = db2.dirty
	db.viewOrder = db2.viewOrder
	db.dur = db2.dur
	db.seq = db2.seq
	db.ro = nil
	db.reopening = false
	// The hub survives the swap (subscriptions are handles into this DB,
	// not its state), but no delta relates the old state to the recovered
	// one: every subscriber must resync against it.
	if db.hub != nil {
		db.hub.MarkAllLost(db.seq)
	}
	db.mu.Unlock()
	return nil
}
