package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the replay path as a log directory's
// contents: Replay must never panic or hang, must classify every input as
// clean, torn-tail, or ErrCorrupt, and on a non-error outcome must deliver
// a contiguous LSN sequence from which a fresh Open can continue appending
// (the recovery contract). split places a segment boundary mid-stream so
// the multi-segment walk (including boundaries that tear a frame in half)
// is fuzzed too; split 0 writes the bytes as one segment.
func FuzzReplay(f *testing.F) {
	// Seeds: real logs produced by the writer itself — single-segment,
	// multi-segment (rotation), pinned truncations at and off frame
	// boundaries, a flipped byte mid-log, and trailing garbage.
	build := func(n int, segBytes int64) []byte {
		dir := f.TempDir()
		l, err := Open(nil, dir, 1, segBytes)
		if err != nil {
			f.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if _, err := appendNext(l, KindTxn, oneRow(int64(i)), false); err != nil {
				f.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
		var all []byte
		for _, name := range Segments(nil, dir) {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				f.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	full := build(5, 0)
	multi := build(6, 64)
	f.Add([]byte{}, uint16(0))
	f.Add(full, uint16(0))
	f.Add(full, uint16(len(full)/2))
	f.Add(full[:len(full)-3], uint16(0))
	f.Add(full[:frameHeader], uint16(0))
	f.Add(full[:frameHeader+1], uint16(0))
	corrupt := append([]byte(nil), full...)
	corrupt[frameHeader+2] ^= 0xff
	f.Add(corrupt, uint16(0))
	f.Add(append(append([]byte(nil), full...), 0xde, 0xad, 0xbe, 0xef), uint16(0))
	f.Add(multi, uint16(len(multi)/3))
	f.Add(multi, uint16(len(multi)-1))

	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		dir := t.TempDir()
		if s := int(split); s > 0 && s < len(data) {
			writeFileT(t, filepath.Join(dir, segName(1)), data[:s])
			writeFileT(t, filepath.Join(dir, segName(1<<40)), data[s:])
		} else {
			writeFileT(t, filepath.Join(dir, segName(1)), data)
		}

		var lsns []uint64
		res, err := Replay(nil, dir, 0, func(r *Changeset) error {
			lsns = append(lsns, r.Seq)
			return nil
		})
		for i, lsn := range lsns {
			if lsn != uint64(i+1) {
				t.Fatalf("delivered LSN %d at position %d; want contiguous from 1 (err=%v)", lsn, i, err)
			}
		}
		if res.Replayed != len(lsns) {
			t.Fatalf("Replayed = %d, delivered %d", res.Replayed, len(lsns))
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay error is not ErrCorrupt: %v", err)
			}
			return
		}
		if res.Last != uint64(len(lsns)) {
			t.Fatalf("Last = %d after %d records", res.Last, len(lsns))
		}

		// Clean or torn-tail: the directory is recoverable — Open must trim
		// any torn tail and accept the next append, and a second replay must
		// extend the same contiguous sequence by exactly that record.
		l, err := Open(nil, dir, res.Last+1, 0)
		if err != nil {
			t.Fatalf("open after clean replay (torn=%v): %v", res.TornTail, err)
		}
		if _, err := appendNext(l, KindTxn, oneRow(99), true); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		res2, err := Replay(nil, dir, 0, func(r *Changeset) error { return nil })
		if err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		if res2.TornTail {
			t.Fatal("torn tail resurfaced after Open trimmed it")
		}
		if res2.Replayed != res.Replayed+1 || res2.Last != res.Last+1 {
			t.Fatalf("after append: replayed %d last %d, want %d and %d",
				res2.Replayed, res2.Last, res.Replayed+1, res.Last+1)
		}
	})
}

func writeFileT(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
