package engine

import (
	"errors"
	"testing"

	"birds/internal/cdc"
	"birds/internal/value"
	"birds/internal/wal"
)

// Tests for the two rules every write path shares (commitLocked, plus
// LoadTable's own short sequence): a write that changes nothing is not a
// visibility point, and a write whose WAL append fails leaves no trace in
// memory.

// commitCase is one of the four write kinds, as an operation on the
// maintainDB fixture after its setup.
type commitCase struct {
	name string
	op   func(t *testing.T, db *DB) error
}

func TestEmptyCommitIsNotAVisibilityPoint(t *testing.T) {
	cases := []commitCase{
		{"table txn", func(t *testing.T, db *DB) error {
			// Re-insert a present row, delete an absent one.
			return db.Exec(Insert("r1", value.Int(1), value.Int(1)), Delete("r1", Eq("a", value.Int(99))))
		}},
		{"view txn", func(t *testing.T, db *DB) error {
			// (1,10) is already in j: the putback plan is empty.
			return db.Exec(Insert("j", value.Int(1), value.Int(10)))
		}},
		{"batch flush", func(t *testing.T, db *DB) error {
			b := db.Batch(BatchOptions{MaxTxns: -1})
			for _, s := range []Statement{
				Insert("r1", value.Int(1), value.Int(1)),
				Insert("r1", value.Int(9), value.Int(9)),
				Delete("r1", Eq("a", value.Int(9))),
			} {
				if err := b.Exec(s); err != nil {
					return err
				}
			}
			return b.Close()
		}},
		{"bulk load of present rows", func(t *testing.T, db *DB) error {
			return db.LoadTable("r1", []value.Tuple{tup(1, 1), tup(3, 3)})
		}},
		{"bulk load of nil rows", func(t *testing.T, db *DB) error {
			return db.LoadTable("r1", nil)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := maintainDB(t)
			if err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, s := range []Statement{
				Insert("r1", value.Int(1), value.Int(1)),
				Insert("r1", value.Int(2), value.Int(2)),
				Insert("r2", value.Int(1), value.Int(10)),
			} {
				if err := db.Exec(s); err != nil {
					t.Fatal(err)
				}
			}
			var subs []*cdc.Subscription
			for _, name := range []string{"r1", "j", "top"} {
				sub, err := db.Subscribe(name, cdc.SubOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				cdcRecv(t, sub) // the initial snapshot
				subs = append(subs, sub)
			}
			// Leave a subscribed view stale: a bulk load marks j, lonely and
			// top dirty; reading j refreshes it, so the view transaction
			// targets a clean view while top stays dirty.
			if err := db.LoadTable("r1", []value.Tuple{tup(3, 3)}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get("j"); err != nil {
				t.Fatal(err)
			}

			lsn, seq := db.LastLSN(), db.CDCStats().Seq
			stale := make(map[string]bool)
			for _, v := range crashViews {
				stale[v] = db.Stale(v)
			}
			subStats := make([]cdc.SubStats, len(subs))
			for i, sub := range subs {
				subStats[i] = sub.Stats()
			}

			if err := c.op(t, db); err != nil {
				t.Fatal(err)
			}

			if got := db.LastLSN(); got != lsn {
				t.Errorf("LastLSN = %d, want %d", got, lsn)
			}
			if got := db.CDCStats().Seq; got != seq {
				t.Errorf("hub seq = %d, want %d", got, seq)
			}
			for _, v := range crashViews {
				if got := db.Stale(v); got != stale[v] {
					t.Errorf("Stale(%s) = %v, want %v", v, got, stale[v])
				}
			}
			for i, sub := range subs {
				if got := sub.Stats(); got != subStats[i] {
					t.Errorf("subscriber of %s: stats %+v, want %+v", sub.View(), got, subStats[i])
				}
			}
		})
	}
}

func TestCommitAppendFailureUndoes(t *testing.T) {
	cases := []commitCase{
		{"table txn", func(t *testing.T, db *DB) error {
			return db.Exec(Insert("r1", value.Int(3), value.Int(1)), Delete("r1", Eq("a", value.Int(2))))
		}},
		{"view txn", func(t *testing.T, db *DB) error {
			// Deleting from j deletes r1 rows and j's own rows.
			return db.Exec(Delete("j", Eq("a", value.Int(1))))
		}},
		{"batch flush", func(t *testing.T, db *DB) error {
			b := db.Batch(BatchOptions{MaxTxns: -1})
			for _, s := range []Statement{
				Insert("r1", value.Int(4), value.Int(1)),
				Delete("r2", Eq("b", value.Int(2))),
			} {
				if err := b.Exec(s); err != nil {
					t.Fatal(err)
				}
			}
			err := b.Flush()
			if n := b.Pending(); n != 2 {
				t.Errorf("pending after failed flush = %d, want the batch still staged (2)", n)
			}
			return err
		}},
		{"bulk load", func(t *testing.T, db *DB) error {
			return db.LoadTable("r1", []value.Tuple{tup(5, 1), tup(6, 2)})
		}},
	}
	setup := func(t *testing.T, db *DB) {
		t.Helper()
		for _, s := range []Statement{
			Insert("r1", value.Int(1), value.Int(1)),
			Insert("r1", value.Int(2), value.Int(2)),
			Insert("r2", value.Int(1), value.Int(10)),
			Insert("r2", value.Int(2), value.Int(20)),
		} {
			if err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ffs := wal.NewFaultFS(nil, 1)
			db := maintainDB(t)
			if err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir(), FS: ffs}); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			setup(t, db)
			ref := maintainDB(t)
			setup(t, ref)
			for _, name := range []string{"r1", "j"} {
				sub, err := db.Subscribe(name, cdc.SubOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
			}
			lsn, seq := db.LastLSN(), db.CDCStats().Seq

			rule := &wal.Rule{Op: wal.OpWrite, Path: "wal-", Once: true}
			ffs.Inject(rule)
			err := c.op(t, db)
			if !errors.Is(err, wal.ErrInjected) {
				t.Fatalf("err = %v, want the injected append fault", err)
			}
			if rule.Fires() != 1 {
				t.Fatalf("append fault fired %d times, want 1", rule.Fires())
			}
			if db.ReadOnly() == nil {
				t.Fatal("engine accepts writes after a failed append")
			}
			// Before any Reopen: the in-memory state is the pre-call state.
			if d := diffDurableState(t, db, ref); d != "" {
				t.Fatalf("state after failed append: %s", d)
			}
			if got := db.CDCStats().Seq; got != seq {
				t.Errorf("hub seq = %d, want %d", got, seq)
			}
			if got := db.LastLSN(); got != lsn {
				t.Errorf("LastLSN = %d, want %d", got, lsn)
			}
		})
	}
}
