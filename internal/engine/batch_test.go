package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"birds/internal/datalog"
	"birds/internal/value"
)

// Trust harness for the group-commit write pipeline: differential fuzzing
// (random DML through a Batcher ≡ the same statements applied serially
// one-at-a-time), per-transaction rollback inside a batch, snapshot
// isolation across flush boundaries, and a concurrent-admission race test.
// Run under -race: the admission-under-read-lock discipline is part of
// what is tested.

// batchStmt builds the random statement of one fuzz step against the
// maintainDB fixture tables (r1, r2).
func batchStmt(rng *rand.Rand) Statement {
	tables := []struct {
		name string
		cols [2]string
	}{{"r1", [2]string{"a", "b"}}, {"r2", [2]string{"b", "c"}}}
	tb := tables[rng.Intn(len(tables))]
	row := tup(rng.Intn(5), rng.Intn(5))
	switch rng.Intn(4) {
	case 0:
		return Insert(tb.name, row...)
	case 1:
		return Delete(tb.name, Eq(tb.cols[0], row[0]))
	case 2:
		// Non-equality WHERE exercises the scan-based effective match.
		return Delete(tb.name, Condition{Col: tb.cols[1], Op: datalog.OpLt, Val: row[1]})
	default:
		return Update(tb.name,
			[]Assignment{{Col: tb.cols[1], Val: row[1]}},
			Eq(tb.cols[0], row[0]))
	}
}

// assertSameEngineState fails unless both databases hold identical tables
// and identical, non-stale views.
func assertSameEngineState(t *testing.T, got, want *DB, label string) {
	t.Helper()
	for _, name := range []string{"r1", "r2", "j", "lonely", "top"} {
		g, err := got.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		w, err := want.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !g.Equal(w) {
			t.Fatalf("%s: %s = %v, want %v", label, name, g, w)
		}
	}
	for _, vn := range []string{"j", "lonely", "top"} {
		if got.Stale(vn) {
			t.Fatalf("%s: view %q fell off the incremental path under batching", label, vn)
		}
	}
}

// TestBatcherDifferential is the core group-commit guarantee: admitting
// random transactions t1..tn through a Batcher and flushing (explicitly, by
// size trigger, or at Close) yields exactly the state of executing t1..tn
// serially one-at-a-time — base tables, view contents, and view cleanliness
// alike. Compared at every flush boundary, not just at the end.
func TestBatcherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4; trial++ {
		dbSerial := maintainDB(t)
		dbBatch := maintainDB(t)
		bt := dbBatch.Batch(BatchOptions{MaxTxns: 2 + rng.Intn(6)})

		for step := 0; step < 150; step++ {
			s := batchStmt(rng)
			if err := dbSerial.Exec(s); err != nil {
				t.Fatalf("trial %d step %d: serial: %v", trial, step, err)
			}
			if err := bt.Exec(s); err != nil {
				t.Fatalf("trial %d step %d: batched: %v", trial, step, err)
			}
			if rng.Intn(10) == 0 {
				if err := bt.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if bt.Pending() == 0 {
				assertSameEngineState(t, dbBatch, dbSerial, fmt.Sprintf("trial %d step %d", trial, step))
			}
		}
		if err := bt.Close(); err != nil {
			t.Fatal(err)
		}
		assertSameEngineState(t, dbBatch, dbSerial, fmt.Sprintf("trial %d final", trial))
	}
}

// TestBatcherTxnRollback pins per-transaction atomicity inside a batch: a
// transaction that fails mid-admission contributes nothing, while the
// surrounding admitted transactions flush normally.
func TestBatcherTxnRollback(t *testing.T) {
	dbSerial := maintainDB(t)
	dbBatch := maintainDB(t)
	bt := dbBatch.Batch(BatchOptions{MaxTxns: -1})

	good1 := Insert("r1", value.Int(1), value.Int(2))
	good2 := Insert("r2", value.Int(2), value.Int(3))
	if err := dbSerial.Exec(good1); err != nil {
		t.Fatal(err)
	}
	if err := dbSerial.Exec(good2); err != nil {
		t.Fatal(err)
	}
	if err := bt.Exec(good1); err != nil {
		t.Fatal(err)
	}
	// Multi-statement transaction whose second statement fails: the first
	// statement's staged effect must roll back with it.
	err := bt.Exec(
		Insert("r1", value.Int(4), value.Int(4)),
		Delete("r1", Eq("nosuchcol", value.Int(0))),
	)
	if err == nil {
		t.Fatal("expected error from bad column")
	}
	if err := bt.Exec(Insert("r1", value.Int(9), value.Int(9), value.Int(9))); err == nil {
		t.Fatal("expected arity error")
	}
	if err := bt.Exec(good2); err != nil {
		t.Fatal(err)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	assertSameEngineState(t, dbBatch, dbSerial, "after rollback")
	if r, _ := dbBatch.Get("r1"); r.Contains(tup(4, 4)) {
		t.Fatal("rolled-back transaction leaked into the store")
	}
}

// TestBatchSnapshotIsolation pins the consistency contract: a reader
// holding a DB.Get snapshot never observes a partially-flushed batch — the
// snapshot shows either none or all of a batch's effect on that relation,
// and snapshots taken mid-batch keep showing the pre-batch state after the
// flush. (As with all engine reads, Rel returns a live reference instead:
// under batching, exactly as under direct writes, it must not be iterated
// concurrently with a flush — use Get.)
func TestBatchSnapshotIsolation(t *testing.T) {
	db := maintainDB(t)
	if err := db.Exec(Insert("r1", value.Int(0), value.Int(0))); err != nil { // warm counts
		t.Fatal(err)
	}
	bt := db.Batch(BatchOptions{MaxTxns: -1})

	preR1, err := db.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	preJ, err := db.Get("j")
	if err != nil {
		t.Fatal(err)
	}

	const K = 20
	for i := 0; i < K; i++ {
		if err := bt.Exec(Insert("r1", value.Int(int64(100+i)), value.Int(1))); err != nil {
			t.Fatal(err)
		}
		if err := bt.Exec(Insert("r2", value.Int(1), value.Int(int64(100+i)))); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-batch: staged transactions are invisible to readers.
	midR1, err := db.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	if !midR1.Equal(preR1) {
		t.Fatalf("mid-batch read observes staged rows: %v", midR1)
	}

	// Concurrent readers during the flush must see the batch's effect on a
	// relation all-or-nothing: every snapshot holds 0 or K of the batch
	// rows, and the join view likewise jumps atomically.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := db.Get("r1")
				if err != nil {
					errs <- err.Error()
					return
				}
				n := 0
				for i := 0; i < K; i++ {
					if snap.Contains(tup(100+i, 1)) {
						n++
					}
				}
				if n != 0 && n != K {
					errs <- fmt.Sprintf("partial batch visible: %d of %d rows", n, K)
					return
				}
			}
		}()
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	// Snapshots taken before the flush keep the pre-batch state.
	if preR1.Contains(tup(100, 1)) || preJ.Contains(tup(100, 100)) {
		t.Fatal("pre-flush snapshot mutated by the flush")
	}
	if n := preR1.Len(); n != midR1.Len() {
		t.Fatalf("pre-flush snapshot changed size: %d vs %d", n, midR1.Len())
	}
	// Post-flush reads have the whole batch, views included and clean.
	postJ, err := db.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	if !postJ.Contains(tup(100, 100)) {
		t.Fatalf("join view missing batch effect: %v", postJ)
	}
	if db.Stale("j") {
		t.Fatal("view fell off the incremental path")
	}
}

// TestBatcherConcurrentAdmission races many writers through one shared
// batcher handle with a small size trigger, so admissions and flushes
// interleave. Writers touch disjoint key ranges, so every
// interleaving is serially equivalent to the same statements in any order;
// the final state must match a serial reference. Run under -race.
func TestBatcherConcurrentAdmission(t *testing.T) {
	dbBatch := maintainDB(t)
	dbSerial := maintainDB(t)
	bt := dbBatch.Batch(BatchOptions{MaxTxns: 8})

	const writers, perWriter = 4, 40
	stmtsOf := func(w int) []Statement {
		rng := rand.New(rand.NewSource(int64(1000 + w)))
		base := 100 * (w + 1)
		var out []Statement
		for i := 0; i < perWriter; i++ {
			a := base + rng.Intn(20)
			switch rng.Intn(3) {
			case 0:
				out = append(out, Insert("r1", value.Int(int64(a)), value.Int(int64(rng.Intn(5)))))
			case 1:
				out = append(out, Insert("r2", value.Int(int64(rng.Intn(5)+base)), value.Int(int64(a))))
			default:
				out = append(out, Delete("r1", Eq("a", value.Int(int64(a)))))
			}
		}
		return out
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, s := range stmtsOf(w) {
				if err := bt.Exec(s); err != nil {
					errs <- err
					return
				}
				if _, err := dbBatch.Get("j"); err != nil { // concurrent snapshot reader
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}

	for w := 0; w < writers; w++ {
		for _, s := range stmtsOf(w) {
			if err := dbSerial.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertSameEngineState(t, dbBatch, dbSerial, "concurrent vs serial")
}

// TestBatcherIntervalFlush pins the interval trigger: a non-empty batch
// flushes FlushInterval after its first admission without any further
// writes or explicit Flush.
func TestBatcherIntervalFlush(t *testing.T) {
	db := maintainDB(t)
	bt := db.Batch(BatchOptions{MaxTxns: -1, FlushInterval: 20 * time.Millisecond})
	defer bt.Close()
	if err := bt.Exec(Insert("r1", value.Int(1), value.Int(1))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r1, err := db.Get("r1")
		if err != nil {
			t.Fatal(err)
		}
		if r1.Contains(tup(1, 1)) {
			if got := bt.Pending(); got != 0 {
				t.Fatalf("flushed but %d transactions still pending", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("interval trigger never flushed the batch")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
