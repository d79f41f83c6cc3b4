package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"birds/internal/cdc"
	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// Tests for the incremental write path: DML against base tables feeds net
// row deltas straight into the dependent views (counting IVM), the dirty
// flag is only the fallback, and engine reads serve O(1) copy-on-write
// snapshots that stay safe across concurrent writers.

// maintainDB builds tables r1(a,b), r2(b,c) with a join view j, a
// negation view lonely, and a view stacked on j — registered without
// oracle validation (the get definitions are known) so the test exercises
// maintenance, not validation.
func maintainDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	for _, d := range []string{"r1(a:int, b:int).", "r2(b:int, c:int)."} {
		if err := db.CreateTable(mustDecl(t, d)); err != nil {
			t.Fatal(err)
		}
	}
	join := `
source r1(a:int, b:int).
source r2(b:int, c:int).
view j(a:int, c:int).
-r1(A,B) :- r1(A,B), not jkeep(A).
jkeep(A) :- j(A,_).
`
	joinGet := "j(A,C) :- r1(A,B), r2(B,C)."
	if err := createUnvalidated(db, join, joinGet); err != nil {
		t.Fatal(err)
	}
	lonely := `
source r1(a:int, b:int).
source r2(b:int, c:int).
view lonely(a:int).
-r1(A,B) :- r1(A,B), not lonely(A).
`
	lonelyGet := "lonely(A) :- r1(A,B), not r2(B,_)."
	if err := createUnvalidated(db, lonely, lonelyGet); err != nil {
		t.Fatal(err)
	}
	top := `
source j(a:int, c:int).
view top(a:int).
-j(A,C) :- j(A,C), not top(A).
`
	topGet := "top(A) :- j(A,_), not j(_,A)."
	if err := createUnvalidated(db, top, topGet); err != nil {
		t.Fatal(err)
	}
	return db
}

func createUnvalidated(db *DB, program, get string) error {
	rules, err := parseRules(get)
	if err != nil {
		return err
	}
	_, err = db.CreateView(program, ViewOptions{SkipValidation: true, ExpectedGet: rules})
	return err
}

func parseRules(src string) ([]*datalog.Rule, error) {
	var out []*datalog.Rule
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		r, err := datalog.ParseRule(line)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// expectedView recomputes a view's contents from scratch on an independent
// database, as the differential reference.
func expectedView(t *testing.T, db *DB, name string) *value.Relation {
	t.Helper()
	v := db.View(name)
	if v == nil {
		t.Fatalf("no view %q", name)
	}
	// Read the tables directly: Relations would refresh a stale view and
	// hide the fallback from the caller's staleness checks.
	db.mu.RLock()
	var tables []string
	for n := range db.tables {
		tables = append(tables, n)
	}
	db.mu.RUnlock()
	ref := eval.NewDatabase()
	for _, n := range tables {
		rel, err := db.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		ref.Set(datalog.Pred(n), rel.Clone())
	}
	// Materialize bottom-up so view-over-view references resolve.
	var materialize func(n string)
	materialize = func(n string) {
		w := db.View(n)
		if w == nil || ref.Rel(datalog.Pred(n)) != nil {
			return
		}
		for _, s := range w.sources {
			materialize(s)
		}
		ev, err := eval.New(w.getEval.Program())
		if err != nil {
			t.Fatal(err)
		}
		rel, err := ev.EvalQuery(ref, datalog.Pred(n))
		if err != nil {
			t.Fatal(err)
		}
		ref.Set(datalog.Pred(n), rel.Clone())
	}
	materialize(name)
	return ref.RelOrEmpty(datalog.Pred(name), v.Decl.Arity())
}

// TestDMLMaintainsViewsIncrementally is the engine-level differential: a
// random DML sequence against the base tables, asserting after every
// transaction that each view (join, negation, view-over-view) stays clean
// (never falls back to the dirty/full-refresh path) and matches a full
// recompute from scratch.
func TestDMLMaintainsViewsIncrementally(t *testing.T) {
	db := maintainDB(t)
	rng := rand.New(rand.NewSource(7))
	tables := []struct {
		name string
		cols [2]string
	}{{"r1", [2]string{"a", "b"}}, {"r2", [2]string{"b", "c"}}}
	views := []string{"j", "lonely", "top"}

	// One write to warm the maintenance state (the first call initializes
	// the support counts).
	if err := db.Exec(Insert("r1", value.Int(0), value.Int(0))); err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 120; step++ {
		tb := tables[rng.Intn(len(tables))]
		row := tup(rng.Intn(5), rng.Intn(5))
		var err error
		switch rng.Intn(3) {
		case 0:
			err = db.Exec(Insert(tb.name, row...))
		case 1:
			err = db.Exec(Delete(tb.name, Eq(tb.cols[0], row[0])))
		default:
			err = db.Exec(Update(tb.name,
				[]Assignment{{Col: tb.cols[1], Val: row[1]}},
				Eq(tb.cols[0], row[0])))
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, vn := range views {
			if db.Stale(vn) {
				t.Fatalf("step %d: view %q fell back to the dirty path", step, vn)
			}
			got, err := db.Get(vn)
			if err != nil {
				t.Fatal(err)
			}
			want := expectedView(t, db, vn)
			if !got.Equal(want) {
				t.Fatalf("step %d: view %q = %v, want %v", step, vn, got, want)
			}
		}
	}
}

// TestNetEmptyTransactionSkipsMaintenance pins the skip: a transaction
// whose net delta is empty (insert+delete of the same row, re-insert of a
// present row, delete of an absent row) performs no view maintenance at
// all and leaves every view clean and unchanged.
func TestNetEmptyTransactionSkipsMaintenance(t *testing.T) {
	db := maintainDB(t)
	if err := db.Exec(Insert("r1", value.Int(1), value.Int(2))); err != nil {
		t.Fatal(err)
	}
	before, err := db.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	beforeSnap := before.Clone()

	for _, stmts := range [][]Statement{
		{Insert("r1", value.Int(8), value.Int(8)), Delete("r1", Eq("a", value.Int(8)))},
		{Insert("r1", value.Int(1), value.Int(2))},                                         // already present
		{Delete("r1", Eq("a", value.Int(77)))},                                             // absent
		{Update("r1", []Assignment{{Col: "b", Val: value.Int(2)}}, Eq("a", value.Int(1)))}, // identity update
	} {
		if err := db.Exec(stmts...); err != nil {
			t.Fatal(err)
		}
		if db.Stale("j") || db.Stale("lonely") || db.Stale("top") {
			t.Fatalf("net-empty transaction %v marked a view stale", stmts)
		}
	}
	after, err := db.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(beforeSnap) {
		t.Fatalf("net-empty transactions changed j: %v -> %v", beforeSnap, after)
	}
}

// TestViewUpdateMaintainsSiblings: updating through a view cascades exact
// deltas into the base tables; sibling views over the same tables must be
// maintained incrementally (stay clean) and agree with a full recompute.
func TestViewUpdateMaintainsSiblings(t *testing.T) {
	db := maintainDB(t)
	// Warm every view's maintenance state with a base write.
	if err := db.Exec(Insert("r1", value.Int(1), value.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("r2", value.Int(1), value.Int(3))); err != nil {
		t.Fatal(err)
	}
	for _, vn := range []string{"j", "lonely", "top"} {
		if _, err := db.Get(vn); err != nil {
			t.Fatal(err)
		}
	}
	// Delete through the join view: -r1 cascades into the base table.
	if err := db.Exec(Delete("j", Eq("a", value.Int(1)))); err != nil {
		t.Fatal(err)
	}
	if db.Stale("lonely") {
		t.Fatal("sibling view went stale instead of being maintained")
	}
	for _, vn := range []string{"j", "lonely", "top"} {
		got, err := db.Get(vn)
		if err != nil {
			t.Fatal(err)
		}
		if want := expectedView(t, db, vn); !got.Equal(want) {
			t.Fatalf("view %q = %v, want %v", vn, got, want)
		}
	}
}

// TestBulkLoadFallsBackToRefresh: LoadTable takes the dirty path (a bulk
// load is cheaper to recompute than to propagate row by row), the next
// read refreshes, and subsequent DML returns to incremental maintenance.
// Every read entry point goes through the one refreshing read: each must
// leave the stale view (top, stacked on the stale j) and its stale source
// clean, and return what a fresh evaluation of the get gives; SnapshotAt's
// seq and a new subscription's Resync are the bulk load's LSN.
func TestBulkLoadFallsBackToRefresh(t *testing.T) {
	reads := map[string]func(t *testing.T, db *DB) (*value.Relation, uint64){
		"Get": func(t *testing.T, db *DB) (*value.Relation, uint64) {
			r, err := db.Get("top")
			if err != nil {
				t.Fatal(err)
			}
			return r, db.LastLSN()
		},
		"GetAll": func(t *testing.T, db *DB) (*value.Relation, uint64) {
			rs, err := db.GetAll("r1", "top", "r2")
			if err != nil {
				t.Fatal(err)
			}
			return rs["top"], db.LastLSN()
		},
		"SnapshotAt": func(t *testing.T, db *DB) (*value.Relation, uint64) {
			r, seq, err := db.SnapshotAt("top")
			if err != nil {
				t.Fatal(err)
			}
			return r, seq
		},
		"Subscribe": func(t *testing.T, db *DB) (*value.Relation, uint64) {
			sub, err := db.Subscribe("top", cdc.SubOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			ev := cdcRecv(t, sub)
			if !ev.Resync {
				t.Fatalf("first event is not a resync: %+v", ev)
			}
			return cdc.ApplyEvent(nil, ev), ev.Seq
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			db := maintainDB(t)
			if err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
			for _, row := range [][2]int64{{1, 1}, {2, 2}, {5, 3}} {
				if err := db.Exec(Insert("r1", value.Int(row[0]), value.Int(row[1]))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.LoadTable("r2", []value.Tuple{tup(1, 2), tup(1, 3), tup(2, 6), tup(3, 7)}); err != nil {
				t.Fatal(err)
			}
			if !db.Stale("j") || !db.Stale("top") {
				t.Fatal("bulk load should mark dependent views stale")
			}
			got, seq := read(t, db)
			if db.Stale("j") || db.Stale("top") {
				t.Fatal("read should refresh the stale view and its stale source")
			}
			if want := expectedView(t, db, "top"); !got.Equal(want) || want.Len() != 2 {
				t.Fatalf("after bulk load: top = %v, want %v (2 rows)", got, want)
			}
			if lsn := db.LastLSN(); seq != lsn || lsn != 4 {
				t.Fatalf("read at seq %d, LastLSN %d, want 4", seq, lsn)
			}
			// Back to incremental: the next write must keep the view clean and right.
			if err := db.Exec(Insert("r2", value.Int(1), value.Int(9))); err != nil {
				t.Fatal(err)
			}
			if db.Stale("j") {
				t.Fatal("DML after refresh should maintain incrementally")
			}
			got, _ = db.Get("j")
			if want := expectedView(t, db, "j"); !got.Equal(want) {
				t.Fatalf("after post-load DML: j = %v, want %v", got, want)
			}
		})
	}
}

// TestCollidingAuxPredicatesStayCorrect: two views whose get programs both
// materialize an auxiliary predicate named "aux" overwrite each other's
// relation in the shared store. Maintenance must survive this (mutual IVM
// invalidation — each view re-initializes after the other ran) and both
// views must stay correct across interleaved DML.
func TestCollidingAuxPredicatesStayCorrect(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r(a:int, b:int).")); err != nil {
		t.Fatal(err)
	}
	evens := `
source r(a:int, b:int).
view evens(a:int).
-r(A,B) :- r(A,B), not evens(A).
`
	evensGet := `
aux(A) :- r(A,B), B < 2.
evens(A) :- aux(A).
`
	if err := createUnvalidated(db, evens, evensGet); err != nil {
		t.Fatal(err)
	}
	odds := `
source r(a:int, b:int).
view odds(a:int).
-r(A,B) :- r(A,B), not odds(A).
`
	oddsGet := `
aux(A) :- r(A,B), B >= 2.
odds(A) :- aux(A).
`
	if err := createUnvalidated(db, odds, oddsGet); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 60; step++ {
		row := tup(rng.Intn(4), rng.Intn(4))
		var err error
		if rng.Intn(2) == 0 {
			err = db.Exec(Insert("r", row...))
		} else {
			err = db.Exec(Delete("r", Eq("a", row[0]), Eq("b", row[1])))
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, vn := range []string{"evens", "odds"} {
			got, err := db.Get(vn)
			if err != nil {
				t.Fatal(err)
			}
			if want := expectedView(t, db, vn); !got.Equal(want) {
				t.Fatalf("step %d: %s = %v, want %v", step, vn, got, want)
			}
		}
	}
}

// TestCreateViewInvalidatesCollidingCounts: registering a NEW view whose
// get program shares an auxiliary predicate with an existing maintained
// view clobbers that aux relation during the initial materialization; the
// existing view's counts must be dropped then, or its next maintenance
// would join deltas against the wrong aux contents.
func TestCreateViewInvalidatesCollidingCounts(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "r(a:int, b:int).")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(mustDecl(t, "s(a:int).")); err != nil {
		t.Fatal(err)
	}
	va := `
source r(a:int, b:int).
source s(a:int).
view va(a:int).
-s(A) :- s(A), not va(A).
`
	vaGet := `
aux(A) :- r(A,B), B < 10.
va(A) :- s(A), aux(A).
`
	if err := createUnvalidated(db, va, vaGet); err != nil {
		t.Fatal(err)
	}
	// Establish va's maintenance state: aux = {1, 5}.
	if err := db.Exec(Insert("r", value.Int(1), value.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("r", value.Int(5), value.Int(2))); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("s", value.Int(1))); err != nil {
		t.Fatal(err)
	}
	// Register vb, whose get program redefines aux: the creation refresh
	// overwrites the shared aux relation in the store.
	vb := `
source r(a:int, b:int).
view vb(a:int).
-r(A,B) :- r(A,B), not vb(A).
`
	vbGet := `
aux(A) :- r(A,B), B >= 100.
vb(A) :- aux(A).
`
	if err := createUnvalidated(db, vb, vbGet); err != nil {
		t.Fatal(err)
	}
	// va's next maintenance must re-initialize, not trust stale counts.
	if err := db.Exec(Insert("s", value.Int(5))); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("va")
	if err != nil {
		t.Fatal(err)
	}
	want := value.RelationOf(1, tup(1), tup(5))
	if !got.Equal(want) {
		t.Fatalf("va = %v, want %v (stale counts survived CreateView collision)", got, want)
	}
}

// TestFailedTableTransactionRollsBack: a table transaction that errors
// mid-way (arity mismatch, bad WHERE column) must leave the store exactly
// as it was — otherwise clean views with live maintenance counts would
// silently diverge from the base table forever.
func TestFailedTableTransactionRollsBack(t *testing.T) {
	db := maintainDB(t)
	if err := db.Exec(Insert("r1", value.Int(1), value.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("r2", value.Int(1), value.Int(5))); err != nil {
		t.Fatal(err)
	}
	r1Before, _ := db.Get("r1")
	r1Snap := r1Before.Clone()

	// Statement 1 applies, statement 2 errors: the transaction must undo
	// statement 1.
	if err := db.Exec(Insert("r1", value.Int(99), value.Int(99)), Insert("r1", value.Int(7))); err == nil {
		t.Fatal("expected arity error")
	}
	if err := db.Exec(Insert("r1", value.Int(99), value.Int(99)), Delete("r1", Condition{Col: "nope", Op: datalog.OpEq, Val: value.Int(0)})); err == nil {
		t.Fatal("expected unknown-column error")
	}
	r1After, _ := db.Get("r1")
	if !r1After.Equal(r1Snap) {
		t.Fatalf("failed transaction left residue: %v, want %v", r1After, r1Snap)
	}
	for _, vn := range []string{"j", "lonely", "top"} {
		got, err := db.Get(vn)
		if err != nil {
			t.Fatal(err)
		}
		if want := expectedView(t, db, vn); !got.Equal(want) {
			t.Fatalf("view %q diverged after failed transaction: %v, want %v", vn, got, want)
		}
	}
	// The next successful write must still maintain correctly.
	if err := db.Exec(Insert("r1", value.Int(2), value.Int(1))); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("j")
	if want := expectedView(t, db, "j"); !got.Equal(want) {
		t.Fatalf("j after recovery = %v, want %v", got, want)
	}
}

// TestFailedBulkLoadAppliesNothing: LoadTable with a bad row must not
// insert any rows (views were never told about them).
func TestFailedBulkLoadAppliesNothing(t *testing.T) {
	db := maintainDB(t)
	if err := db.Exec(Insert("r1", value.Int(1), value.Int(1))); err != nil {
		t.Fatal(err)
	}
	before, _ := db.Get("r1")
	snap := before.Clone()
	err := db.LoadTable("r1", []value.Tuple{tup(50, 50), tup(51)})
	if err == nil {
		t.Fatal("expected arity error")
	}
	after, _ := db.Get("r1")
	if !after.Equal(snap) {
		t.Fatalf("failed bulk load left residue: %v, want %v", after, snap)
	}
	if got, want := expectedView(t, db, "j"), func() *value.Relation { r, _ := db.Get("j"); return r }(); !want.Equal(got) {
		t.Fatalf("view j diverged after failed load: %v, want %v", want, got)
	}
}

// TestGetSnapshotImmutable: a snapshot taken before a transaction keeps
// observing the pre-transaction state.
func TestGetSnapshotImmutable(t *testing.T) {
	db := setupUnion(t, false)
	snapV, err := db.Get("v")
	if err != nil {
		t.Fatal(err)
	}
	snapR1, err := db.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	wantV, wantR1 := snapV.Clone(), snapR1.Clone()
	if err := db.Exec(Insert("v", value.Int(42))); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(Insert("r2", value.Int(43))); err != nil {
		t.Fatal(err)
	}
	if !snapV.Equal(wantV) || !snapR1.Equal(wantR1) {
		t.Fatalf("snapshots changed under a writer: v=%v r1=%v", snapV, snapR1)
	}
	cur, _ := db.Get("v")
	if !cur.Contains(tup(42)) {
		t.Fatal("live relation missed the write")
	}
}

// TestGetSnapshotRace is the satellite race test: O(1) snapshot readers
// iterating the very relations concurrent writers mutate in place — table
// and maintained view alike — must be race-clean (run under -race in CI)
// and always observe a consistent set.
func TestGetSnapshotRace(t *testing.T) {
	db := setupUnion(t, false)
	if _, err := db.Get("v"); err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 32)

	for w := 0; w < 2; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 40; i++ {
				x := value.Int(int64(1000 + w*100 + i))
				if err := db.Exec(Insert("r1", x)); err != nil {
					errs <- err
					return
				}
				if err := db.Exec(Delete("r1", Eq("a", x))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range []string{"r1", "v"} {
					snap, err := db.Get(name)
					if err != nil {
						errs <- err
						return
					}
					n := 0
					snap.Each(func(value.Tuple) { n++ })
					if n != snap.Len() {
						errs <- fmt.Errorf("snapshot of %s inconsistent: iterated %d, Len %d", name, n, snap.Len())
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, _ := db.Get("v")
	if !v.Equal(value.RelationOf(1, tup(1), tup(2), tup(4))) {
		t.Fatalf("v = %v after churn", v)
	}
}
