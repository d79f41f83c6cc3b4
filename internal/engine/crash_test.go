package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"birds/internal/datalog"
	"birds/internal/value"
	"birds/internal/wal"
)

// Crash-injection harness for the durability layer: recovery after a crash
// at ANY byte of the write-ahead log must leave the engine bit-identical to
// an uninterrupted run over the acknowledged prefix of writes — base
// tables, view contents, AND the counting IVM's support counts. Two fault
// models: truncate-the-log-after-N-bytes (every frame boundary plus
// mid-frame cuts, simulating a torn append), and kill-and-restart of a real
// child process mid-write-storm (SIGKILL, no shutdown path runs).

// crashOp is one recorded operation, applied identically to the durable
// primary and to the in-memory reference.
type crashOp func(*DB) error

func stmtOp(s Statement) crashOp { return func(db *DB) error { return db.Exec(s) } }

// makeCrashOps builds a deterministic operation stream over the maintainDB
// fixture: random single-statement transactions against r1/r2 (the
// execTable WAL hook), one bulk load (the KindBulkLoad hook plus the
// stale-view fallback), one view-targeted transaction (the applyPlan hook),
// and optionally one mid-stream checkpoint (log truncation under live
// traffic).
func makeCrashOps(seed int64, n int, withCheckpoint bool) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]crashOp, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i == n/3:
			rows := make([]value.Tuple, 0, 6)
			for k := 0; k < 6; k++ {
				rows = append(rows, tup(50+k, 50+k))
			}
			ops = append(ops, func(db *DB) error { return db.LoadTable("r1", rows) })
		case i == n/2:
			s := Delete("j", Eq("a", value.Int(int64(rng.Intn(5)))))
			ops = append(ops, stmtOp(s))
		case withCheckpoint && i == 2*n/3:
			ops = append(ops, func(db *DB) error {
				if db.Durable() {
					return db.Checkpoint()
				}
				return nil // the in-memory reference skips it
			})
		default:
			ops = append(ops, stmtOp(batchStmt(rng)))
		}
	}
	return ops
}

var crashRels = []string{"r1", "r2", "j", "lonely", "top"}
var crashViews = []string{"j", "lonely", "top"}

// initCounts forces every view's counting IVM into the initialized steady
// state (refreshing stale views first), so support counts are comparable
// between a recovered engine and an in-memory reference regardless of
// which side last took the full-refresh fallback.
func initCounts(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, n := range db.viewOrder {
		if db.dirty[n] {
			if err := db.refresh(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range db.viewOrder {
		if _, err := db.views[n].getEval.EvalDelta(db.store, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// assertSameDurableState is the differential oracle: every base table and
// view relation equal, and every view tuple's support count equal.
func assertSameDurableState(t *testing.T, got, want *DB, label string) {
	t.Helper()
	if d := diffDurableState(t, got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// diffDurableState compares got against want like assertSameDurableState
// but reports the first mismatch instead of failing, so a caller can probe
// multiple admissible reference states (the fault matrix's recovered ⊆
// attempted check). It still fails the test on infrastructure errors.
func diffDurableState(t *testing.T, got, want *DB) string {
	t.Helper()
	for _, name := range crashRels {
		g, err := got.Get(name)
		if err != nil {
			t.Fatalf("recovered %s: %v", name, err)
		}
		w, err := want.Get(name)
		if err != nil {
			t.Fatalf("reference %s: %v", name, err)
		}
		if !g.Equal(w) {
			return fmt.Sprintf("%s = %v, want %v", name, g, w)
		}
	}
	initCounts(t, got)
	initCounts(t, want)
	for _, name := range crashViews {
		gv, wv := got.View(name), want.View(name)
		p := datalog.Pred(name)
		rel, err := want.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		diff := ""
		rel.Each(func(tp value.Tuple) {
			if diff != "" {
				return
			}
			wc := wv.getEval.SupportCount(p, tp)
			if wc <= 0 {
				t.Fatalf("reference count for %s%v not initialized", name, tp)
			}
			if gc := gv.getEval.SupportCount(p, tp); gc != wc {
				diff = fmt.Sprintf("view %s support%v = %d, want %d", name, tp, gc, wc)
			}
		})
		if diff != "" {
			return diff
		}
	}
	return ""
}

// frameBoundariesOf walks the frame length fields of a log image and
// returns every complete-frame boundary offset, starting at 0.
func frameBoundariesOf(data []byte) []int {
	bounds := []int{0}
	off := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if off+8+n > len(data) {
			break
		}
		off += 8 + n
		bounds = append(bounds, off)
	}
	return bounds
}

// segImage is one WAL segment's name and full contents.
type segImage struct {
	name string
	data []byte
}

// readWAL snapshots the log segments of dir in replay order. Frames never
// span segments, so the concatenation of the images is the contiguous
// record stream.
func readWAL(t *testing.T, dir string) []segImage {
	t.Helper()
	var out []segImage
	for _, name := range wal.Segments(nil, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, segImage{name: name, data: data})
	}
	return out
}

// concatWAL joins segment images into the contiguous record stream.
func concatWAL(segs []segImage) []byte {
	var all []byte
	for _, s := range segs {
		all = append(all, s.data...)
	}
	return all
}

// writeWALCut materializes the first cut bytes of the concatenated stream
// into dir, preserving the original segment boundaries: segments fully
// below the cut are copied whole, the segment holding the cut is
// truncated, later segments are omitted — exactly the on-disk shape of a
// crash at that point.
func writeWALCut(t *testing.T, dir string, segs []segImage, cut int) {
	t.Helper()
	for _, s := range segs {
		n := len(s.data)
		if cut < n {
			n = cut
		}
		if err := os.WriteFile(filepath.Join(dir, s.name), s.data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		cut -= n
		if cut <= 0 {
			break
		}
	}
}

// walBytes sums the sizes of dir's log segments.
func walBytes(dir string) int64 {
	var total int64
	for _, name := range wal.Segments(nil, dir) {
		if st, err := os.Stat(filepath.Join(dir, name)); err == nil {
			total += st.Size()
		}
	}
	return total
}

// copyCheckpoints copies the checkpoint generation files from src to dst.
func copyCheckpoints(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "checkpoint-") || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALTruncationDifferential is the truncate-after-N-bytes fault
// injection: run a deterministic op stream on a durable engine, then for
// cut points across the whole log — every frame boundary and mid-frame
// offsets — recover from (checkpoints + log[:cut]) and diff against an
// in-memory reference that executed exactly the acknowledged prefix. A cut
// inside a frame is the torn tail of a crashed append: the partial record
// was never acknowledged and must be skipped silently.
func TestWALTruncationDifferential(t *testing.T) {
	for trial, withCkpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("midCheckpoint=%v", withCkpt), func(t *testing.T) {
			const nOps = 45
			ops := makeCrashOps(97+int64(trial), nOps, withCkpt)

			primaryDir := t.TempDir()
			db := maintainDB(t)
			if err := db.EnableDurability(DurabilityOptions{Dir: primaryDir, Sync: wal.SyncOff, CheckpointEvery: -1}); err != nil {
				t.Fatal(err)
			}
			// lsnAfter maps each op to the log position after it: the
			// acknowledged prefix for a recovery at LSN L is every op with
			// lsnAfter ≤ L (no-op transactions append nothing and change
			// nothing, so they ride along with the preceding LSN).
			lsnAfter := make([]uint64, nOps)
			for i, op := range ops {
				if err := op(db); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				lsnAfter[i] = db.LastLSN()
			}
			if err := db.DisableDurability(); err != nil {
				t.Fatal(err)
			}

			segs := readWAL(t, primaryDir)
			logData := concatWAL(segs)
			bounds := frameBoundariesOf(logData)
			cutSet := make(map[int]bool)
			for i, b := range bounds {
				cutSet[b] = true
				if i > 0 { // a mid-frame cut: torn tail
					cutSet[(bounds[i-1]+b)/2] = true
				}
			}
			cutSet[len(logData)] = true
			cuts := make([]int, 0, len(cutSet))
			for c := range cutSet {
				cuts = append(cuts, c)
			}
			sort.Ints(cuts)

			// The reference advances monotonically with the (ascending)
			// cuts, so the whole sweep costs one pass over the op stream.
			ref := maintainDB(t)
			refApplied := 0
			for _, cut := range cuts {
				dir := t.TempDir()
				copyCheckpoints(t, primaryDir, dir)
				writeWALCut(t, dir, segs, cut)
				rec, stats, err := Recover(dir)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				for refApplied < nOps && lsnAfter[refApplied] <= stats.LastLSN {
					if err := ops[refApplied](ref); err != nil {
						t.Fatalf("reference op %d: %v", refApplied, err)
					}
					refApplied++
				}
				label := fmt.Sprintf("cut %d/%d (LSN %d, torn=%v)", cut, len(logData), stats.LastLSN, stats.TornTail)
				assertSameDurableState(t, rec, ref, label)
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// Post-recovery continuation: the engine recovered from the full
			// log keeps running in lockstep with the reference.
			dir := t.TempDir()
			copyCheckpoints(t, primaryDir, dir)
			writeWALCut(t, dir, segs, len(logData))
			rec, _, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range makeCrashOps(7+int64(trial), 12, false) {
				if err := op(rec); err != nil {
					t.Fatalf("continuation op %d on recovered: %v", i, err)
				}
				if err := op(ref); err != nil {
					t.Fatalf("continuation op %d on reference: %v", i, err)
				}
			}
			assertSameDurableState(t, rec, ref, "post-recovery continuation")
		})
	}
}

// TestRecoverMidLogCorruption pins the other half of the torn-tail
// contract: a corrupt record FOLLOWED by well-formed records is not a torn
// tail — acknowledged writes would be silently lost — so recovery must
// refuse with a hard error.
func TestRecoverMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	db := maintainDB(t)
	if err := db.EnableDurability(DurabilityOptions{Dir: dir, Sync: wal.SyncOff, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Exec(Insert("r1", value.Int(int64(i)), value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DisableDurability(); err != nil {
		t.Fatal(err)
	}
	segs := readWAL(t, dir)
	if len(segs) != 1 {
		t.Fatalf("expected one segment, got %d", len(segs))
	}
	logPath := filepath.Join(dir, segs[0].name)
	data := segs[0].data
	data[8+2] ^= 0xff // a payload byte of the first record
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Recover on mid-log corruption: got %v, want ErrCorrupt", err)
	}
}

// TestCheckpointDuringBatchAdmission pins the checkpoint/batch race: a
// checkpoint taken while transactions sit admitted-but-unflushed must not
// cover them (they are not yet acknowledged, not yet in the WAL), and the
// later flush record must land strictly after the checkpoint LSN — so the
// batch survives a crash through the log tail, not the snapshot.
func TestCheckpointDuringBatchAdmission(t *testing.T) {
	dir := t.TempDir()
	db := maintainDB(t)
	if err := db.EnableDurability(DurabilityOptions{Dir: dir, Sync: wal.SyncOnFlush, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	bt := db.Batch(BatchOptions{MaxTxns: -1}) // explicit flush only
	ref := maintainDB(t)

	stmts := []Statement{
		Insert("r1", value.Int(1), value.Int(2)),
		Insert("r2", value.Int(2), value.Int(3)),
		Insert("r1", value.Int(3), value.Int(2)),
	}
	for _, s := range stmts {
		if err := bt.Exec(s); err != nil {
			t.Fatal(err)
		}
		if err := ref.Exec(s); err != nil {
			t.Fatal(err)
		}
	}

	ckLSN := db.LastLSN()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.LastLSN(); got != ckLSN {
		t.Fatalf("checkpoint consumed LSNs: %d -> %d", ckLSN, got)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.LastLSN(); got != ckLSN+1 {
		t.Fatalf("flush record LSN = %d, want %d (strictly after the checkpoint)", got, ckLSN+1)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rec, stats, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointLSN != ckLSN || stats.Replayed != 1 {
		t.Fatalf("recovery loaded checkpoint %d and replayed %d records, want checkpoint %d and 1 record",
			stats.CheckpointLSN, stats.Replayed, ckLSN)
	}
	assertSameDurableState(t, rec, ref, "batch admitted across a checkpoint")
}

// TestFlushAppendErrorDegradesToReadOnly pins the group-commit
// acknowledgment contract under a storage failure: when the batch's WAL
// append fails, the flush reports the error, the store and every view
// stay exactly as they were (nothing unlogged is ever visible), and the
// engine transitions to read-only degraded mode — the poisoned log is
// never retried. Reads keep working throughout; Reopen recovers from disk
// and restores writes.
func TestFlushAppendErrorDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(nil, 1)
	db := maintainDB(t)
	if err := db.EnableDurability(DurabilityOptions{Dir: dir, Sync: wal.SyncOff, CheckpointEvery: -1, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	ref := maintainDB(t)

	// One durable committed write before the failure: it must survive the
	// whole episode.
	pre := Insert("r1", value.Int(1), value.Int(1))
	if err := db.Exec(pre); err != nil {
		t.Fatal(err)
	}
	if err := ref.Exec(pre); err != nil {
		t.Fatal(err)
	}

	bt := db.Batch(BatchOptions{MaxTxns: -1})
	stmts := []Statement{
		Insert("r1", value.Int(7), value.Int(8)),
		Insert("r2", value.Int(8), value.Int(9)),
	}
	for _, s := range stmts {
		if err := bt.Exec(s); err != nil {
			t.Fatal(err)
		}
	}

	before := make(map[string]*value.Relation)
	for _, name := range crashRels {
		r, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		before[name] = r
	}

	boom := errors.New("injected: device out of space")
	ffs.Inject(&wal.Rule{Op: wal.OpWrite, Err: boom, Once: true})
	if err := bt.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush with failing append: got %v, want the injected error", err)
	}
	for _, name := range crashRels {
		r, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Equal(before[name]) {
			t.Fatalf("failed flush mutated %s: %v, was %v", name, r, before[name])
		}
	}

	// The engine is degraded: every write path fails fast with ErrReadOnly
	// (the poisoned log is never retried), reads keep being served.
	if err := db.ReadOnly(); err == nil {
		t.Fatal("failed flush did not degrade the engine")
	}
	if err := db.Exec(Insert("r1", value.Int(2), value.Int(2))); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("direct write while degraded: got %v, want ErrReadOnly", err)
	}
	if err := bt.Flush(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("flush retry while degraded: got %v, want ErrReadOnly", err)
	}
	if err := db.LoadTable("r1", []value.Tuple{tup(3, 3)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("bulk load while degraded: got %v, want ErrReadOnly", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("checkpoint while degraded: got %v, want ErrReadOnly", err)
	}
	if _, err := db.Get("r1"); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}

	// Reopen recovers from disk: exactly the acknowledged writes (the
	// failed batch was never logged, so it is gone), then writes work.
	if err := db.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := db.ReadOnly(); err != nil {
		t.Fatalf("still degraded after reopen: %v", err)
	}
	assertSameDurableState(t, db, ref, "after reopen")
	for _, s := range stmts {
		if err := db.Exec(s); err != nil {
			t.Fatalf("write after reopen: %v", err)
		}
		if err := ref.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	assertSameDurableState(t, db, ref, "continuation after reopen")

	// And the continuation is durable: recover the directory cold.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverFS(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDurableState(t, rec, ref, "recovered after reopen continuation")
}

// effectiveStmt is the kill-and-restart op stream: every op has a non-empty
// net delta by construction, so op i is exactly WAL record i+1 and a
// recovered LastLSN identifies the acknowledged op prefix.
func effectiveStmt(i int) Statement {
	switch i % 4 {
	case 0:
		return Insert("r1", value.Int(int64(i)), value.Int(int64(i)))
	case 1:
		return Insert("r2", value.Int(int64(i)), value.Int(int64(i)))
	case 2: // op i-1 put r2(i-1, i-1) there; rewrite its c column
		return Update("r2",
			[]Assignment{{Col: "c", Val: value.Int(int64(i + 1000))}},
			Eq("b", value.Int(int64(i-1))))
	default: // op i-3 put r1(i-3, i-3) there; no other op touches it
		return Delete("r1", Eq("a", value.Int(int64(i-3))))
	}
}

func crashEnvInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// TestCrashRestartDifferential is the kill-and-restart harness: a child
// process (this test binary re-exec'd) runs a deterministic write storm
// with fsync-on-commit until the parent SIGKILLs it mid-flight — no
// shutdown path runs, the log ends wherever the kernel left it. The parent
// recovers the directory and diffs against a reference that executed
// exactly the acknowledged prefix, then runs both onward in lockstep.
// Tunables: BIRDS_CRASH_TRIALS (default 2), BIRDS_CRASH_SEED (kill-timing
// seed, default 1).
func TestCrashRestartDifferential(t *testing.T) {
	if dir := os.Getenv("BIRDS_CRASH_DIR"); dir != "" {
		// Child mode: write until killed.
		db := maintainDB(t)
		if err := db.EnableDurability(DurabilityOptions{Dir: dir, Sync: wal.SyncOnCommit, CheckpointEvery: -1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1<<20; i++ {
			if err := db.Exec(effectiveStmt(i)); err != nil {
				t.Fatal(err)
			}
		}
		select {} // outlived the storm; wait for the kill
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	trials := crashEnvInt("BIRDS_CRASH_TRIALS", 2)
	if testing.Short() {
		trials = 1
	}
	rng := rand.New(rand.NewSource(int64(crashEnvInt("BIRDS_CRASH_SEED", 1))))

	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		var childOut bytes.Buffer
		cmd := exec.Command(exe, "-test.run", "^TestCrashRestartDifferential$")
		cmd.Env = append(os.Environ(), "BIRDS_CRASH_DIR="+dir)
		cmd.Stdout = &childOut
		cmd.Stderr = &childOut
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}

		deadline := time.Now().Add(30 * time.Second)
		for {
			if walBytes(dir) > 256 {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("trial %d: child never started writing; output:\n%s", trial, childOut.String())
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(time.Duration(2+rng.Intn(40)) * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()

		rec, stats, err := Recover(dir)
		if err != nil {
			t.Fatalf("trial %d: recover: %v\nchild output:\n%s", trial, err, childOut.String())
		}
		n := int(stats.LastLSN)
		ref := maintainDB(t)
		for i := 0; i < n; i++ {
			if err := ref.Exec(effectiveStmt(i)); err != nil {
				t.Fatalf("trial %d: reference op %d: %v", trial, i, err)
			}
		}
		label := fmt.Sprintf("trial %d (killed at LSN %d, torn=%v)", trial, stats.LastLSN, stats.TornTail)
		assertSameDurableState(t, rec, ref, label)

		for i := n; i < n+8; i++ {
			if err := rec.Exec(effectiveStmt(i)); err != nil {
				t.Fatalf("%s: continuation op %d on recovered: %v", label, i, err)
			}
			if err := ref.Exec(effectiveStmt(i)); err != nil {
				t.Fatalf("%s: continuation op %d on reference: %v", label, i, err)
			}
		}
		assertSameDurableState(t, rec, ref, label+" continuation")
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
