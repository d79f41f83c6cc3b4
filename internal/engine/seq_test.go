package engine

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"birds/internal/cdc"
	"birds/internal/value"
	"birds/internal/wal"
)

// Tests for the one sequence number of a visibility point: the commit seq
// is the Seq of the point's CDC events and, when durable, the LSN of its
// WAL record — one changeset, numbered once.

// drainEvents receives every event sub holds right now: its buffered
// events, then the resync a loss owes.
func drainEvents(t *testing.T, sub *cdc.Subscription) []cdc.Event {
	t.Helper()
	st := sub.Stats()
	var evs []cdc.Event
	for i := 0; i < st.Buffered; i++ {
		evs = append(evs, cdcRecv(t, sub))
	}
	if st.Lost {
		evs = append(evs, cdcRecv(t, sub))
	}
	return evs
}

// walRecord reads the record at lsn back from the log in dir.
func walRecord(t *testing.T, dir string, lsn uint64) *wal.Changeset {
	t.Helper()
	var rec *wal.Changeset
	if _, err := wal.Replay(nil, dir, lsn-1, func(cs *wal.Changeset) error {
		if cs.Seq == lsn {
			rec = cs
		}
		return nil
	}); err != nil {
		t.Fatalf("replay for LSN %d: %v", lsn, err)
	}
	if rec == nil {
		t.Fatalf("no WAL record at LSN %d", lsn)
	}
	return rec
}

// sameRows compares two row lists of r1 (arity 2) as sets.
func sameRows(a, b []value.Tuple) bool {
	return value.RelationOf(2, a...).Equal(value.RelationOf(2, b...))
}

func TestSeqIsLSN(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(nil, 1)
	db := maintainDB(t)
	defer db.Close()
	subs := make(map[string]*cdc.Subscription)
	for _, name := range []string{"r1", "j"} {
		sub, err := db.Subscribe(name, cdc.SubOptions{Buffer: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		cdcRecv(t, sub) // the initial snapshot
		subs[name] = sub
	}

	var high uint64 // the highest seq any step reached
	// step runs op and checks the numbering it leaves: writes take exactly
	// the next seq, every delta event carries it, and a durable write's
	// record at that LSN holds the table subscriber's delta (and no view).
	step := func(label string, op func() error, write bool) {
		t.Helper()
		before := db.CDCStats().Seq
		if err := op(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := before
		if write {
			want++
		}
		seq := db.CDCStats().Seq
		if seq != want {
			t.Fatalf("%s: seq %d -> %d, want %d", label, before, seq, want)
		}
		if seq < high {
			t.Fatalf("%s: seq went back from %d to %d", label, high, seq)
		}
		high = seq
		durable := db.Durable()
		if got := db.LastLSN(); durable && got != seq {
			t.Fatalf("%s: LastLSN %d != CDC seq %d", label, got, seq)
		}
		for name, sub := range subs {
			for _, ev := range drainEvents(t, sub) {
				if ev.Seq != seq {
					t.Fatalf("%s: %s event at seq %d, want %d", label, name, ev.Seq, seq)
				}
				if ev.Resync || !durable {
					continue
				}
				rec := walRecord(t, dir, ev.Seq)
				logged := false
				for _, td := range rec.Tables {
					if td.Name == "j" {
						t.Fatalf("%s: record %d logs view j", label, rec.Seq)
					}
					if td.Name == name {
						logged = true
						if !sameRows(td.Ins, ev.Inserts) || !sameRows(td.Del, ev.Deletes) {
							t.Fatalf("%s: record %d logs %s +%v -%v, event has +%v -%v",
								label, rec.Seq, name, td.Ins, td.Del, ev.Inserts, ev.Deletes)
						}
					}
				}
				if name == "r1" && !logged {
					t.Fatalf("%s: record %d does not log the r1 delta of its event", label, rec.Seq)
				}
			}
		}
	}
	exec := func(stmts ...Statement) func() error { return func() error { return db.Exec(stmts...) } }

	step("non-durable r2 write", exec(Insert("r2", value.Int(1), value.Int(10))), true)
	step("non-durable r1 write", exec(Insert("r1", value.Int(7), value.Int(1))), true)
	step("EnableDurability", func() error {
		return db.EnableDurability(DurabilityOptions{Dir: dir, FS: ffs, CheckpointEvery: -1})
	}, false)
	step("direct write", exec(Insert("r1", value.Int(8), value.Int(1))), true)
	step("view-targeted write", exec(Delete("j", Eq("a", value.Int(7)))), true)
	step("batch flush", func() error {
		b := db.Batch(BatchOptions{MaxTxns: -1})
		for _, s := range []Statement{
			Insert("r1", value.Int(9), value.Int(1)),
			Insert("r2", value.Int(2), value.Int(20)),
			Insert("r1", value.Int(10), value.Int(2)),
		} {
			if err := b.Exec(s); err != nil {
				return err
			}
		}
		return b.Close()
	}, true)
	step("LoadTable", func() error {
		return db.LoadTable("r1", []value.Tuple{tup(11, 1), tup(12, 3)})
	}, true)
	step("Checkpoint", db.Checkpoint, false)
	step("failed append", func() error {
		ffs.Inject(&wal.Rule{Op: wal.OpWrite, Path: "wal-", Once: true})
		if err := db.Exec(Insert("r1", value.Int(13), value.Int(1))); !errors.Is(err, wal.ErrInjected) {
			t.Fatalf("err = %v, want the injected append fault", err)
		}
		return nil
	}, false)
	step("Reopen", db.Reopen, false)
	step("write after Reopen", exec(Insert("r1", value.Int(14), value.Int(1))), true)
}

// TestReopenNeverRewindsSeq: when recovery lands below the seq the engine
// already published — here the log lost its last acknowledged record, as
// an unsynced tail can — Reopen continues from the published seq and cuts
// its checkpoint there, so no seq is handed out twice and a cold recovery
// afterwards still replays a contiguous log.
func TestReopenNeverRewindsSeq(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(nil, 1)
	db := maintainDB(t)
	defer db.Close()
	if err := db.EnableDurability(DurabilityOptions{Dir: dir, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	sub, err := db.Subscribe("r1", cdc.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	cdcRecv(t, sub)
	for i := 1; i <= 3; i++ {
		if err := db.Exec(Insert("r1", value.Int(int64(i)), value.Int(1))); err != nil {
			t.Fatal(err)
		}
	}
	published := db.CDCStats().Seq
	drainEvents(t, sub)

	ffs.Inject(&wal.Rule{Op: wal.OpWrite, Path: "wal-", Once: true})
	if err := db.Exec(Insert("r1", value.Int(4), value.Int(1))); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("err = %v, want the injected append fault", err)
	}
	segs := wal.Segments(nil, dir)
	newest := filepath.Join(dir, segs[len(segs)-1])
	data, err := os.ReadFile(newest)
	if err != nil || len(data) == 0 {
		t.Fatalf("newest segment: %d bytes, err %v", len(data), err)
	}
	if err := os.WriteFile(newest, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	if err := db.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := db.CDCStats().Seq; got != published {
		t.Fatalf("seq after Reopen = %d, want the published %d", got, published)
	}
	if got := db.LastLSN(); got != published {
		t.Fatalf("LastLSN after Reopen = %d, want %d", got, published)
	}
	if ev := cdcRecv(t, sub); !ev.Resync || ev.Seq != published {
		t.Fatalf("after Reopen: %+v, want a resync at seq %d", ev, published)
	}
	if err := db.Exec(Insert("r1", value.Int(5), value.Int(1))); err != nil {
		t.Fatal(err)
	}
	if ev := cdcRecv(t, sub); ev.Resync || ev.Seq != published+1 {
		t.Fatalf("first write after Reopen: %+v, want a delta at seq %d", ev, published+1)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec, stats, err := Recover(dir)
	if err != nil {
		t.Fatalf("cold recovery after a Reopen above the log: %v", err)
	}
	defer rec.Close()
	if stats.LastLSN != published+1 {
		t.Fatalf("recovered at LSN %d, want %d", stats.LastLSN, published+1)
	}
	assertSameDurableState(t, rec, db, "cold recovery")
}

// Commit.Seq is the commit seq of the visibility point that made a
// transaction visible: shared by every transaction of one flush, the
// direct path's own seq for a view-targeted transaction, and the latest
// earlier seq when the flush's net delta was empty.
func TestCommitSeqIsVisibilityPoint(t *testing.T) {
	db := maintainDB(t)
	defer db.Close()
	if err := db.Exec(Insert("r2", value.Int(1), value.Int(5))); err != nil {
		t.Fatal(err)
	}
	bt := db.Batch(BatchOptions{MaxTxns: 2})
	defer bt.Close()
	wait := func(label string, c Commit, want uint64) {
		t.Helper()
		if err := c.Wait(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if c.Seq() != want {
			t.Fatalf("%s: Commit.Seq = %d, want %d", label, c.Seq(), want)
		}
		if got := db.CDCStats().Seq; got != want {
			t.Fatalf("%s: engine commit seq = %d, want %d", label, got, want)
		}
	}
	exec := func(s Statement) Commit {
		t.Helper()
		_, c, err := bt.ExecAsync(s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := exec(Insert("r1", value.Int(1), value.Int(1)))
	c2 := exec(Insert("r1", value.Int(2), value.Int(2))) // the size trigger flushes both
	wait("first of one flush", c1, 2)
	wait("second of one flush", c2, 2)
	wait("view-targeted", exec(Delete("j", Eq("a", value.Int(1)))), 3)
	c := exec(Insert("r2", value.Int(1), value.Int(5))) // already present
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	wait("empty net delta", c, 3)
}
