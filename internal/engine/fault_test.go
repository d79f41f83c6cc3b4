package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"birds/internal/value"
	"birds/internal/wal"
)

// Fault-matrix differential harness: drive a randomized DML stream through
// a durable engine whose filesystem injects one fault class at a
// randomized point, then verify the full durability contract:
//
//   - acked ⊆ recovered ⊆ attempted. Recovery from the (healed) disk
//     reproduces every acknowledged transaction — support counts included —
//     plus at most the one atomic write unit that was in flight when the
//     log poisoned itself. That unit is genuinely ambiguous at the storage
//     layer: a record whose bytes reached the file before its fsync failed
//     replays (it was attempted, and it is a complete, checksummed frame),
//     while a record that never hit the file, or hit it torn, does not.
//     Nothing else may appear, and nothing acked may be missing.
//   - After a fault on the durable-write path the engine is in read-only
//     degraded mode: reads keep working, every write fails fast with
//     ErrReadOnly, and Reopen recovers in place and restores writes.
//   - Checkpoint-path faults (temp create, torn rename, GC remove) and
//     segment-rotation faults are non-fatal: writes keep flowing and no
//     acknowledged data is lost.
//
// Acknowledgment points match the production ones: direct Exec for the
// unbatched path, Commit.Wait (the group-commit flush, birds-serve's 200)
// for the batched path — batched trials admit transactions in groups of
// MaxTxns so whole batches coalesce into single WAL records.
//
// Segment rotation (tiny SegmentBytes) and background checkpoints (small
// CheckpointEvery) both run hot during every trial. Tunables:
// BIRDS_FAULT_TRIALS (default 3 per class), BIRDS_FAULT_SEED (default 1).
// Run under -race: background checkpointing concurrency is part of what
// is tested.

// faultDegrade is a fault class's expectation about degraded mode.
type faultDegrade int

const (
	degradeEither  faultDegrade = iota // depends on where the fault lands
	degradeIfFired                     // fired ⇒ the engine must be read-only
	degradeNever                       // the fault is non-fatal by design
)

// faultClass arms one kind of storage betrayal at a randomized point.
type faultClass struct {
	name    string
	degrade faultDegrade
	rule    func(rng *rand.Rand) *wal.Rule
}

var faultClasses = []faultClass{
	{"append-eio", degradeIfFired, func(rng *rand.Rand) *wal.Rule {
		return &wal.Rule{Op: wal.OpWrite, Path: "wal-", Err: errors.New("injected EIO"), AfterN: 1 + rng.Intn(20), Once: true}
	}},
	{"append-short-write", degradeIfFired, func(rng *rand.Rand) *wal.Rule {
		return &wal.Rule{Op: wal.OpWrite, Path: "wal-", ShortWrite: true, AfterN: 1 + rng.Intn(20), Once: true}
	}},
	// No path filter: lands on segment appends (fatal), segment-create dir
	// syncs, or checkpoint temp syncs (both non-fatal) as the dice decide.
	{"fsync-enospc", degradeEither, func(rng *rand.Rand) *wal.Rule {
		return &wal.Rule{Op: wal.OpSync, Err: wal.ErrNoSpace, AfterN: 1 + rng.Intn(20), Once: true}
	}},
	{"segment-create-failure", degradeNever, func(rng *rand.Rand) *wal.Rule {
		// Not Once: every rotation attempt fails until cleared, proving
		// the log keeps accepting appends into the oversized segment.
		return &wal.Rule{Op: wal.OpOpen, Path: "wal-", Err: wal.ErrNoSpace, AfterN: 1 + rng.Intn(3)}
	}},
	{"checkpoint-temp-failure", degradeNever, func(rng *rand.Rand) *wal.Rule {
		return &wal.Rule{Op: wal.OpCreateTemp, Err: wal.ErrNoSpace, AfterN: 1 + rng.Intn(3), Once: true}
	}},
	{"checkpoint-torn-rename", degradeNever, func(rng *rand.Rand) *wal.Rule {
		return &wal.Rule{Op: wal.OpRename, Path: "checkpoint-", TornRename: true, AfterN: 1 + rng.Intn(3), Once: true}
	}},
	{"gc-remove-failure", degradeNever, func(rng *rand.Rand) *wal.Rule {
		return &wal.Rule{Op: wal.OpRemove, Err: errors.New("injected EACCES"), AfterN: 1 + rng.Intn(5)}
	}},
}

func TestFaultMatrix(t *testing.T) {
	trials := crashEnvInt("BIRDS_FAULT_TRIALS", 3)
	if testing.Short() {
		trials = 1
	}
	baseSeed := int64(crashEnvInt("BIRDS_FAULT_SEED", 1))
	for _, fc := range faultClasses {
		t.Run(fc.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				runFaultTrial(t, fc, baseSeed*1000+int64(trial))
			}
		})
	}
}

// faultAttempt is one operation of a trial's stream with its outcome:
// acked (the durability ack point returned nil) or ambiguous (it failed
// WITH the storage fault itself, so its record may or may not have reached
// the file — the one unit recovery is allowed to resurrect).
type faultAttempt struct {
	op        crashOp
	acked     bool
	ambiguous bool
}

func runFaultTrial(t *testing.T, fc faultClass, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	ffs := wal.NewFaultFS(nil, seed)

	db := maintainDB(t)
	if err := db.EnableDurability(DurabilityOptions{
		Dir:             dir,
		Sync:            wal.SyncOnCommit,
		CheckpointEvery: 7,   // background checkpoints run hot
		SegmentBytes:    512, // rotation runs hot
		FS:              ffs,
	}); err != nil {
		t.Fatal(err)
	}
	const groupSize = 4
	useBatch := rng.Intn(2) == 0
	// The batched arm owns one handle, and every DML op of the trial —
	// stream, degraded probe and continuation — goes through it.
	var bt *Batcher
	exec := db.Exec
	newBatch := func() {
		bt = db.Batch(BatchOptions{MaxTxns: groupSize, FlushInterval: time.Millisecond})
		exec = bt.Exec
	}
	if useBatch {
		newBatch()
	}
	label := fmt.Sprintf("%s seed=%d batch=%v", fc.name, seed, useBatch)

	// Arm the fault after setup, so every trial starts from a healthy
	// engine and the fault lands mid-stream at an FS-op-count offset.
	ffs.Inject(fc.rule(rng))

	// The attempted stream. classify records an op's outcome at its ack
	// point; an error that is not the read-only fast-fail is the storage
	// fault surfacing, which makes the op's write unit ambiguous.
	attempts := make([]faultAttempt, 0, 64)
	classify := func(idx int, err error) {
		attempts[idx].acked = err == nil
		attempts[idx].ambiguous = err != nil && !errors.Is(err, ErrReadOnly)
	}
	// Batched trials admit DML in groups of MaxTxns: the whole group
	// coalesces into one flush (one WAL record), and every member is
	// classified by its own Commit.Wait — the production ack point.
	type pending struct {
		idx int
		c   Commit
	}
	var group []pending
	settle := func() {
		for _, p := range group {
			classify(p.idx, p.c.Wait())
		}
		group = group[:0]
	}
	runStmt := func(idx int, s Statement) {
		if !useBatch {
			classify(idx, db.Exec(s))
			return
		}
		_, c, err := bt.ExecAsync(s)
		if err != nil {
			classify(idx, err) // rejected at admission: nothing staged
			return
		}
		group = append(group, pending{idx, c})
		if len(group) == groupSize {
			settle()
		}
	}
	const nOps = 60
	for i := 0; i < nOps; i++ {
		attempts = append(attempts, faultAttempt{})
		switch {
		case i == nOps/3:
			settle() // direct ops must not leapfrog staged transactions
			rows := []value.Tuple{tup(90, 90), tup(91, 91)}
			op := func(db *DB) error { return db.LoadTable("r1", rows) }
			attempts[i].op = op
			classify(i, op(db))
		case i == nOps/2:
			settle()
			op := stmtOp(Delete("j", Eq("a", value.Int(int64(rng.Intn(5))))))
			attempts[i].op = op
			classify(i, op(db))
		case i == 2*nOps/3:
			settle()
			op := func(db *DB) error {
				if db.Durable() {
					// Checkpoint failures are non-fatal; the error only
					// reports that the snapshot didn't advance.
					_ = db.Checkpoint()
				}
				return nil
			}
			attempts[i].op = op
			classify(i, op(db))
		default:
			s := batchStmt(rng)
			attempts[i].op = stmtOp(s)
			runStmt(i, s)
		}
	}
	settle()

	degraded := db.ReadOnly() != nil
	switch fc.degrade {
	case degradeIfFired:
		if ffs.Fired() > 0 && !degraded {
			t.Fatalf("%s: fault fired %d time(s) but the engine is not degraded", label, ffs.Fired())
		}
	case degradeNever:
		if degraded {
			t.Fatalf("%s: non-fatal fault class degraded the engine: %v", label, db.ReadOnly())
		}
	}

	ffs.Clear() // the disk heals; recovery and Reopen run clean

	if degraded {
		// Degraded: reads must still serve, writes must fail fast, and
		// Reopen must restore the acked state and accept writes again.
		if _, err := db.Get("r1"); err != nil {
			t.Fatalf("%s: read while degraded: %v", label, err)
		}
		if err := exec(Insert("r1", value.Int(1), value.Int(1))); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%s: write while degraded: got %v, want ErrReadOnly", label, err)
		}
		// Retire the handle and re-create it after Reopen, the way the
		// server's POST /reopen does: nothing it staged was logged.
		if useBatch {
			bt.Discard(db.ReadOnly())
		}
		if err := db.Reopen(); err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		if useBatch {
			newBatch()
		}
		if err := db.ReadOnly(); err != nil {
			t.Fatalf("%s: still degraded after reopen: %v", label, err)
		}
	}

	// Differential oracle. refMin replays exactly the acked ops; if the
	// live state differs, the ambiguous in-flight unit must account for it
	// in full — refMin plus the ambiguous ops, and nothing else.
	buildRef := func(withAmbiguous bool) *DB {
		ref := maintainDB(t)
		for i, a := range attempts {
			if !a.acked && !(withAmbiguous && a.ambiguous) {
				continue
			}
			if err := a.op(ref); err != nil {
				t.Fatalf("%s: reference op %d: %v", label, i, err)
			}
		}
		return ref
	}
	ref := buildRef(false)
	if d := diffDurableState(t, db, ref); d != "" {
		nAmb := 0
		for _, a := range attempts {
			if a.ambiguous {
				nAmb++
			}
		}
		if nAmb == 0 {
			t.Fatalf("%s: lost acked state with no write in flight: %s", label, d)
		}
		ref = buildRef(true)
		if d := diffDurableState(t, db, ref); d != "" {
			t.Fatalf("%s: state matches neither acked nor acked+in-flight: %s", label, d)
		}
	}

	// Continuation: the engine accepts writes and stays in lockstep.
	for i := 0; i < 8; i++ {
		s := batchStmt(rng)
		if err := exec(s); err != nil {
			t.Fatalf("%s: continuation op %d: %v", label, i, err)
		}
		if err := ref.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	if useBatch {
		if err := bt.Close(); err != nil {
			t.Fatalf("%s: batcher close: %v", label, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("%s: close: %v", label, err)
	}

	// Cold recovery from the healed disk: bit-identical to the reference.
	rec, _, err := RecoverFS(ffs, dir)
	if err != nil {
		t.Fatalf("%s: cold recover: %v", label, err)
	}
	assertSameDurableState(t, rec, ref, label+" (cold recovery)")
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint cut at an LSN that already has one must not rename over the
// live checkpoint file: under a torn rename that file is the only valid
// generation (older ones and their WAL segments are gone), so cold recovery
// would find none. The two tests below drive the two ways to re-cut at the
// same LSN — DDL, whose catalog change lives only in checkpoints, and an
// explicit Checkpoint with no write since the last cut — into a torn
// rename, then recover cold.

// tornRecut enables durability on db over a FaultFS, runs setup, arms a
// torn rename of the next checkpoint file, runs recut (which must fail
// with the injected fault) and returns the cold-recovered engine.
func tornRecut(t *testing.T, db *DB, setup, recut func() error) *DB {
	t.Helper()
	dir := t.TempDir()
	ffs := wal.NewFaultFS(nil, 1)
	if err := db.EnableDurability(DurabilityOptions{Dir: dir, Sync: wal.SyncOnCommit, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	if err := setup(); err != nil {
		t.Fatal(err)
	}
	lsn := db.LastLSN()
	rule := &wal.Rule{Op: wal.OpRename, Path: "checkpoint-", TornRename: true, Once: true}
	ffs.Inject(rule)
	if err := recut(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("re-cut at LSN %d: err = %v, want the injected torn rename", lsn, err)
	}
	if rule.Fires() != 1 {
		t.Fatalf("torn rename fired %d times, want 1", rule.Fires())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec, stats, err := Recover(dir)
	if err != nil {
		t.Fatalf("cold recover after a torn same-LSN checkpoint: %v", err)
	}
	if stats.CheckpointLSN != lsn {
		t.Fatalf("recovered from checkpoint LSN %d, want the live one at %d", stats.CheckpointLSN, lsn)
	}
	t.Cleanup(func() { rec.Close() })
	return rec
}

func TestDDLCheckpointTornRenameKeepsLiveGeneration(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r(a:int).")); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("r", value.Int(1))); err != nil {
		t.Fatal(err)
	}
	rec := tornRecut(t, db, func() error { return nil }, func() error {
		return db.CreateTable(mustDecl(t, "s(b:int)."))
	})
	got, err := rec.Get("r")
	if err != nil || !got.Equal(value.RelationOf(1, tup(1))) {
		t.Fatalf("recovered r = %v (err %v), want {(1)}", got, err)
	}
	if _, err := rec.Get("s"); err == nil {
		t.Fatal("the failed CREATE TABLE s survived recovery")
	}
}

func TestExplicitCheckpointTornRenameKeepsLiveGeneration(t *testing.T) {
	db := maintainDB(t)
	rec := tornRecut(t, db, func() error {
		if err := db.Exec(Insert("r1", value.Int(1), value.Int(2))); err != nil {
			return err
		}
		return db.Checkpoint()
	}, db.Checkpoint)
	want := maintainDB(t)
	if err := want.Exec(Insert("r1", value.Int(1), value.Int(2))); err != nil {
		t.Fatal(err)
	}
	assertSameEngineState(t, rec, want, "recovered")
}

// An fsync that fails after the record's frame was written in full leaves a
// complete frame in the segment. The write is not acknowledged and the
// engine degrades as for any storage failure, but the error must say the
// outcome is unknown (wal.ErrOutcomeUnknown), not that the write failed:
// recovery replays the frame, and the row reappears at seq 1.
func TestFaultSyncAfterFullWriteOutcomeUnknown(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(nil, 1)
	db := maintainDB(t)
	if err := db.EnableDurability(DurabilityOptions{Dir: dir, Sync: wal.SyncOnCommit, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&wal.Rule{Op: wal.OpSync, Path: "wal-", Once: true})
	err := db.Exec(Insert("r1", value.Int(1), value.Int(1)))
	if !errors.Is(err, wal.ErrOutcomeUnknown) {
		t.Fatalf("Exec with a failed fsync after a full frame write: got %v, want wal.ErrOutcomeUnknown", err)
	}
	if ffs.Fired() != 1 {
		t.Fatalf("fault fired %d times, want 1", ffs.Fired())
	}
	if db.ReadOnly() == nil {
		t.Fatal("engine not degraded after a failed fsync")
	}
	if r1, err := db.Get("r1"); err != nil || !r1.Empty() {
		t.Fatalf("unacknowledged write visible before recovery: r1 = %v, %v", r1, err)
	}
	if seq := db.CDCStats().Seq; seq != 0 {
		t.Fatalf("commit seq %d after an unacknowledged write, want 0", seq)
	}

	ffs.Clear()
	if err := db.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	r1, err := db.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(value.RelationOf(2, tup(1, 1))) {
		t.Fatalf("after Reopen r1 = %v, want the replayed {(1, 1)}", r1)
	}
	if seq := db.CDCStats().Seq; seq != 1 {
		t.Fatalf("after Reopen commit seq = %d, want 1", seq)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
