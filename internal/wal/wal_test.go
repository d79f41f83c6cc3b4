package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"birds/internal/value"
)

func tup(vs ...value.Value) value.Tuple { return value.Tuple(vs) }

func testRecords() [][]TableDelta {
	return [][]TableDelta{
		{{Name: "items", Arity: 3, Ins: []value.Tuple{
			tup(value.Int(1), value.Str("a"), value.Float(1.5)),
			tup(value.Int(2), value.Str("it's"), value.Bool(true)),
		}}},
		{{Name: "items", Arity: 3, Del: []value.Tuple{
			tup(value.Int(1), value.Str("a"), value.Float(1.5)),
		}}, {Name: "owners", Arity: 2, Ins: []value.Tuple{
			tup(value.Int(7), value.Null()),
		}}},
		{{Name: "owners", Arity: 2, Ins: []value.Tuple{
			tup(value.Int(8), value.Int(-12345678901)),
		}, Del: []value.Tuple{
			tup(value.Int(7), value.Null()),
		}}},
	}
}

// appendAll writes the test records and closes the log, returning the dir.
func appendAll(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(nil, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KindTxn, KindBatch, KindBulkLoad}
	for i, tables := range testRecords() {
		lsn, err := l.Append(kinds[i%len(kinds)], tables, true)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("record %d got LSN %d", i, lsn)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func replayAll(t *testing.T, dir string, afterLSN uint64) ([]*Record, ReplayResult, error) {
	t.Helper()
	var recs []*Record
	res, err := Replay(nil, dir, afterLSN, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, res, err
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := appendAll(t)
	recs, res, err := replayAll(t, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TornTail || res.Replayed != 3 || res.Last != 3 {
		t.Fatalf("unexpected replay result %+v", res)
	}
	want := testRecords()
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d: LSN %d", i, rec.LSN)
		}
		if len(rec.Tables) != len(want[i]) {
			t.Fatalf("record %d: %d tables, want %d", i, len(rec.Tables), len(want[i]))
		}
		for j, td := range rec.Tables {
			w := want[i][j]
			if td.Name != w.Name || td.Arity != w.Arity {
				t.Fatalf("record %d table %d: %q/%d", i, j, td.Name, td.Arity)
			}
			for k, tu := range td.Ins {
				if !tu.Equal(w.Ins[k]) {
					t.Fatalf("record %d table %d ins %d: %s != %s", i, j, k, tu, w.Ins[k])
				}
			}
			for k, tu := range td.Del {
				if !tu.Equal(w.Del[k]) {
					t.Fatalf("record %d table %d del %d: %s != %s", i, j, k, tu, w.Del[k])
				}
			}
		}
	}

	// afterLSN skips covered records without replaying them.
	recs, res, err = replayAll(t, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 3 || res.Skipped != 2 {
		t.Fatalf("afterLSN=2: got %d records, result %+v", len(recs), res)
	}
}

// TestTornTailSkippedAtEveryOffset truncates the log at every byte offset:
// replay must never error, and must deliver exactly the records whose
// frames fit completely below the truncation point.
func TestTornTailSkippedAtEveryOffset(t *testing.T) {
	dir := appendAll(t)
	full, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, computed by a clean replay of prefix sizes.
	boundaries := frameBoundaries(t, full)
	for cut := 0; cut <= len(full); cut++ {
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, res, err := replayAll(t, tdir, 0)
		if err != nil {
			t.Fatalf("cut=%d: unexpected error %v", cut, err)
		}
		wantComplete := 0
		for _, b := range boundaries {
			if b <= cut {
				wantComplete++
			}
		}
		if len(recs) != wantComplete {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(recs), wantComplete)
		}
		// Any cut that is not exactly a frame boundary (or the empty file)
		// leaves torn trailing bytes.
		wantTorn := cut != 0
		if wantComplete > 0 && cut == boundaries[wantComplete-1] {
			wantTorn = false
		}
		if res.TornTail != wantTorn {
			t.Fatalf("cut=%d: TornTail=%v, want %v", cut, res.TornTail, wantTorn)
		}
	}
}

// frameBoundaries returns the cumulative end offsets of each frame.
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	var out []int
	off := 0
	for off < len(data) {
		_, frameLen, ok := decodeFrame(data[off:])
		if !ok {
			t.Fatalf("bad frame at offset %d", off)
		}
		off += frameLen
		out = append(out, off)
	}
	return out
}

// TestMidLogCorruptionIsHardError flips one byte inside the FIRST record's
// payload: later records are intact, so replay must refuse to skip.
func TestMidLogCorruptionIsHardError(t *testing.T) {
	dir := appendAll(t)
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+2] ^= 0xff // inside record 1's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replayAll(t, dir, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestTrailingCorruptRecordSkipped flips a byte inside the LAST record:
// with nothing valid after it, the checksum failure reads as a torn tail.
func TestTrailingCorruptRecordSkipped(t *testing.T) {
	dir := appendAll(t)
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := frameBoundaries(t, data)
	last := boundaries[len(boundaries)-2] // start of final frame
	data[last+frameHeader+1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, res, err := replayAll(t, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !res.TornTail {
		t.Fatalf("got %d records, result %+v; want 2 records and a torn tail", len(recs), res)
	}
}

func TestReplayMissingLogIsEmpty(t *testing.T) {
	recs, res, err := replayAll(t, t.TempDir(), 0)
	if err != nil || len(recs) != 0 || res.TornTail {
		t.Fatalf("recs=%d res=%+v err=%v", len(recs), res, err)
	}
}

func TestAppendAfterReopenContinuesLSN(t *testing.T) {
	dir := appendAll(t)
	l, err := Open(nil, dir, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(KindTxn, []TableDelta{{Name: "items", Arity: 1, Ins: []value.Tuple{tup(value.Int(9))}}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("got LSN %d, want 4", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := replayAll(t, dir, 0)
	if err != nil || len(recs) != 4 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

// oneRow is a minimal single-table delta for append tests.
func oneRow(v int64) []TableDelta {
	return []TableDelta{{Name: "items", Arity: 1, Ins: []value.Tuple{tup(value.Int(v))}}}
}

// TestAppendErrorPoisonsLog injects a clean write failure: the append must
// surface it, and every later append or sync must fail with ErrPoisoned —
// the log never retries a file whose page-cache state is unknown.
func TestAppendErrorPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 1)
	l, err := Open(ffs, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(KindTxn, oneRow(1), true); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	ffs.Inject(&Rule{Op: OpWrite, Err: boom, Once: true})
	if _, err := l.Append(KindTxn, oneRow(2), true); !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	// The fault is gone, but the log must stay poisoned anyway.
	if _, err := l.Append(KindTxn, oneRow(3), true); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failure: want ErrPoisoned, got %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("sync after failure: want ErrPoisoned, got %v", err)
	}
	if err := l.Poisoned(); !errors.Is(err, ErrPoisoned) || !errors.Is(err, boom) {
		t.Fatalf("Poisoned() = %v; want ErrPoisoned wrapping the cause", err)
	}
	if got := l.LastLSN(); got != 1 {
		t.Fatalf("LSN consumed by failed append: last=%d", got)
	}
}

// TestShortWritePoisonsAndRecoveryTrims injects a torn append (half the
// frame persists): the log must poison itself, and replay must deliver
// exactly the acknowledged records, reporting the torn tail.
func TestShortWritePoisonsAndRecoveryTrims(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 1)
	l, err := Open(ffs, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindTxn, oneRow(1), true); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&Rule{Op: OpWrite, ShortWrite: true, Once: true})
	if _, err := l.Append(KindTxn, oneRow(2), false); err == nil {
		t.Fatal("short write did not error")
	}
	if _, err := l.Append(KindTxn, oneRow(3), false); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("want ErrPoisoned, got %v", err)
	}
	l.Close()
	recs, res, err := replayAll(t, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !res.TornTail {
		t.Fatalf("got %d records, result %+v; want 1 record and a torn tail", len(recs), res)
	}
	// Open trims the torn bytes and appends where the valid prefix ends.
	l2, err := Open(ffs, dir, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(KindTxn, oneRow(2), true); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	recs, res, err = replayAll(t, dir, 0)
	if err != nil || len(recs) != 2 || res.TornTail {
		t.Fatalf("after trim+append: recs=%d res=%+v err=%v", len(recs), res, err)
	}
}

// TestSyncErrorPoisonsLog injects an fsync failure on a synced append.
func TestSyncErrorPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 1)
	l, err := Open(ffs, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ffs.Inject(&Rule{Op: OpSync, Err: ErrNoSpace, Path: segPrefix, Once: true})
	if _, err := l.Append(KindTxn, oneRow(1), true); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if _, err := l.Append(KindTxn, oneRow(2), true); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("want ErrPoisoned, got %v", err)
	}
}

// TestSegmentRotation drives the log across a tiny rotation threshold and
// checks the segment layout, replay, and GC watermark behavior.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(nil, dir, 1, 128) // rotate every ~128 bytes
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 1; i <= n; i++ {
		if _, err := l.Append(KindTxn, oneRow(int64(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	segs := Segments(nil, dir)
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	// Replay concatenates segments into one contiguous stream.
	recs, res, err := replayAll(t, dir, 0)
	if err != nil || len(recs) != n || res.Segments != len(segs) {
		t.Fatalf("recs=%d res=%+v err=%v", len(recs), res, err)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
	// RotateForCheckpoint seals the active segment; removing below the
	// returned watermark must keep every record at or after it.
	watermark, err := l.RotateForCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveSegmentsBelow(watermark); err != nil {
		t.Fatal(err)
	}
	recs, _, err = replayAll(t, dir, watermark-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n-int(watermark)+1 {
		t.Fatalf("after GC: %d records from LSN %d, want %d", len(recs), watermark, n-int(watermark)+1)
	}
	if _, err := l.Append(KindTxn, oneRow(99), true); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// TestRotationCreateFailureDegradesGracefully: if the next segment cannot
// be created, the log keeps appending to the (oversized) current one
// rather than failing writes.
func TestRotationCreateFailureDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 1)
	l, err := Open(ffs, dir, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ffs.Inject(&Rule{Op: OpOpen, Path: segPrefix}) // every segment create fails
	for i := 1; i <= 10; i++ {
		if _, err := l.Append(KindTxn, oneRow(int64(i)), false); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	ffs.Clear()
	recs, _, err := replayAll(t, dir, 0)
	if err != nil || len(recs) != 10 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if got := len(Segments(ffs, dir)); got != 1 {
		t.Fatalf("rotation happened despite create failures: %d segments", got)
	}
}

// TestReplayCorruptionAcrossSegments: a torn tail in a NON-final segment
// followed by valid records in a later segment is corruption, not a torn
// tail.
func TestReplayCorruptionAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(nil, dir, 1, 1) // rotate on every append
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(KindTxn, oneRow(int64(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs := Segments(nil, dir)
	if len(segs) != 3 {
		t.Fatalf("want 3 segments, got %v", segs)
	}
	// Truncate the middle segment mid-frame.
	mid := filepath.Join(dir, segs[1])
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mid, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayAll(t, dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	// Truncating the FINAL segment instead is an ordinary torn tail.
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, segs[2])
	data, err = os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, res, err := replayAll(t, dir, 0)
	if err != nil || len(recs) != 2 || !res.TornTail {
		t.Fatalf("recs=%d res=%+v err=%v", len(recs), res, err)
	}
}

// TestCheckpointRenameFailureLeavesNoTemp: a failed checkpoint rename must
// not leave its temp file, and a torn rename's partial live file must fall
// back to the previous generation — then be swept by the next success.
func TestCheckpointRenameFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 1)
	if err := WriteCheckpoint(ffs, dir, &Checkpoint{LSN: 1}); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&Rule{Op: OpRename, TornRename: true, Once: true})
	if err := WriteCheckpoint(ffs, dir, &Checkpoint{LSN: 2}); err == nil {
		t.Fatal("torn rename did not error")
	}
	for _, name := range listDir(t, dir) {
		if strings.HasSuffix(name, tmpSuffix) {
			t.Fatalf("temp file left behind: %s", name)
		}
	}
	// The partial generation-2 file fails its checksum; generation 1 loads.
	ck, err := LatestCheckpoint(ffs, dir)
	if err != nil || ck.LSN != 1 {
		t.Fatalf("ck=%+v err=%v; want fallback to LSN 1", ck, err)
	}
	// The next successful checkpoint replaces everything older.
	if err := WriteCheckpoint(ffs, dir, &Checkpoint{LSN: 3}); err != nil {
		t.Fatal(err)
	}
	ck, err = LatestCheckpoint(ffs, dir)
	if err != nil || ck.LSN != 3 {
		t.Fatalf("ck=%+v err=%v", ck, err)
	}
	names := listDir(t, dir)
	if len(names) != 1 || names[0] != ckptName(3, 0) {
		t.Fatalf("stale files not removed: %v", names)
	}
}

// TestCheckpointGenerationsAtOneLSN: a re-write at an LSN that already has
// a checkpoint goes to the next generation's name, so a torn rename there
// leaves the live generation loadable; generations order after the LSN,
// and the next success removes the older ones.
func TestCheckpointGenerationsAtOneLSN(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, 1)
	if err := WriteCheckpoint(ffs, dir, &Checkpoint{LSN: 5, CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&Rule{Op: OpRename, TornRename: true, Once: true})
	if err := WriteCheckpoint(ffs, dir, &Checkpoint{LSN: 5, Gen: 1, CheckpointEvery: 2}); err == nil {
		t.Fatal("torn rename did not error")
	}
	ck, err := LatestCheckpoint(ffs, dir)
	if err != nil || ck.Gen != 0 || ck.CheckpointEvery != 1 {
		t.Fatalf("ck=%+v err=%v; want the live generation 0", ck, err)
	}
	if err := WriteCheckpoint(ffs, dir, &Checkpoint{LSN: 5, Gen: 2, CheckpointEvery: 3}); err != nil {
		t.Fatal(err)
	}
	ck, err = LatestCheckpoint(ffs, dir)
	if err != nil || ck.LSN != 5 || ck.Gen != 2 || ck.CheckpointEvery != 3 {
		t.Fatalf("ck=%+v err=%v; want generation 2", ck, err)
	}
	if names := listDir(t, dir); len(names) != 1 || names[0] != ckptName(5, 2) {
		t.Fatalf("older generations not removed: %v", names)
	}
	// A later LSN outranks every generation of an earlier one.
	if err := WriteCheckpoint(ffs, dir, &Checkpoint{LSN: 6}); err != nil {
		t.Fatal(err)
	}
	if names := listDir(t, dir); len(names) != 1 || names[0] != ckptName(6, 0) {
		t.Fatalf("generation 2 at LSN 5 not removed by LSN 6: %v", names)
	}
}

// TestOpenSweepsStaleTemps: temp files stranded by a crashed checkpoint
// (its cleanup also failed) are removed on the next Open.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, ckptPrefix+"12345"+tmpSuffix)
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(nil, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stale temp not swept: %v", err)
	}
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := &Checkpoint{
		LSN:             42,
		Sync:            SyncOnFlush,
		CheckpointEvery: 512,
		Tables: []TableState{{
			Name:  "items",
			Attrs: []AttrState{{"iid", "int"}, {"iname", "string"}},
			Rows:  []value.Tuple{tup(value.Int(1), value.Str("a")), tup(value.Int(2), value.Str("b"))},
		}, {
			Name:  "empty",
			Attrs: []AttrState{{"x", "int"}},
		}},
		Views: []ViewState{{
			Program:     "source items(iid:int, iname:string).\nview v(iid:int, iname:string).\n-items(I,N) :- items(I,N), not v(I,N).\n",
			Get:         []string{"v(I,N) :- items(I,N)."},
			Incremental: true,
		}},
	}
	if err := WriteCheckpoint(nil, dir, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LatestCheckpoint(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 42 || got.Sync != SyncOnFlush || got.CheckpointEvery != 512 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Tables) != 2 || got.Tables[0].Name != "items" || len(got.Tables[0].Rows) != 2 ||
		got.Tables[1].Name != "empty" || len(got.Tables[1].Rows) != 0 {
		t.Fatalf("tables mismatch: %+v", got.Tables)
	}
	if got.Tables[0].Attrs[1] != (AttrState{"iname", "string"}) {
		t.Fatalf("attrs mismatch: %+v", got.Tables[0].Attrs)
	}
	if len(got.Views) != 1 || got.Views[0].Program != ck.Views[0].Program ||
		len(got.Views[0].Get) != 1 || got.Views[0].Get[0] != ck.Views[0].Get[0] || !got.Views[0].Incremental {
		t.Fatalf("views mismatch: %+v", got.Views)
	}
}

// TestLatestCheckpointFallsBack corrupts the newest generation; the older
// valid one must be loaded instead.
func TestLatestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(nil, dir, &Checkpoint{LSN: 1}); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join(dir, ckptName(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(nil, dir, &Checkpoint{LSN: 2}); err != nil {
		t.Fatal(err)
	}
	// WriteCheckpoint removed generation 1; restore it, then corrupt 2.
	if err := os.WriteFile(filepath.Join(dir, ckptName(1, 0)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(dir, ckptName(2, 0))
	data, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LatestCheckpoint(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.LSN != 1 {
		t.Fatalf("loaded LSN %d, want fallback to 1", ck.LSN)
	}
}

func TestLatestCheckpointEmptyDir(t *testing.T) {
	ck, err := LatestCheckpoint(nil, t.TempDir())
	if err != nil || ck != nil {
		t.Fatalf("ck=%v err=%v", ck, err)
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, m := range []SyncMode{SyncOff, SyncOnCommit, SyncOnFlush} {
		got, err := ParseSyncMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round-trip %v: got %v err %v", m, got, err)
		}
	}
	if _, err := ParseSyncMode("nope"); err == nil {
		t.Fatal("want error for unknown mode")
	}
}

// TestTornTailInOlderSegmentIsCorrupt: torn bytes are tolerated only in
// the newest non-empty segment — a crash can only tear the final append,
// so garbage followed by ANY data in a later segment is corruption, not a
// torn tail, even when that later data never decodes as a record.
func TestTornTailInOlderSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(nil, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(KindTxn, oneRow(int64(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg1, append(data, 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(4)), []byte{0xbe, 0xef}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(nil, dir, 0, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay: %v, want ErrCorrupt", err)
	}

	// An EMPTY later segment is the legitimate interrupted-rotation shape:
	// the torn tail stays a torn tail.
	if err := os.WriteFile(filepath.Join(dir, segName(4)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(nil, dir, 0, func(*Record) error { return nil })
	if err != nil || !res.TornTail || res.Last != 3 {
		t.Fatalf("replay with empty trailing segment: res=%+v err=%v", res, err)
	}
}

// TestOpenDropsTrailingEmptySegments: Open must remove empty trailing
// segments and trim the torn tail of the newest non-empty one, so the next
// append can never strand torn bytes in the middle of the log.
func TestOpenDropsTrailingEmptySegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(nil, dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(KindTxn, oneRow(int64(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg1, append(data, 0x01, 0x02, 0x03), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(4)), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(nil, dir, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindTxn, oneRow(4), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	res, err := Replay(nil, dir, 0, func(r *Record) error { lsns = append(lsns, r.LSN); return nil })
	if err != nil || res.TornTail {
		t.Fatalf("replay after recovery append: res=%+v err=%v", res, err)
	}
	if len(lsns) != 4 || lsns[3] != 4 {
		t.Fatalf("replayed %v, want LSNs 1..4", lsns)
	}
}
