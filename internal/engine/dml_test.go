package engine

import (
	"testing"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// indexesOn lists the store's maintained indexes on relation name.
func indexesOn(db *DB, name string) []eval.IndexStats {
	var out []eval.IndexStats
	for _, ix := range db.Store().Indexes() {
		if ix.Pred == datalog.Pred(name) {
			out = append(out, ix)
		}
	}
	return out
}

// TestFullKeyWhereMatchesByMembership pins the DML path of a WHERE whose
// equalities fix every column: it matches exactly the row it names — in
// the store, and inside a batch in the stage whose earlier transaction
// inserted that row — by membership in those relations, and builds no
// store index. A WHERE on part of the columns still builds its index, so
// the next probe hits it.
func TestFullKeyWhereMatchesByMembership(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(mustDecl(t, "t(a:int, b:string).")); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("t", []value.Tuple{tup(1, "x"), tup(2, "y"), tup(3, "z")}); err != nil {
		t.Fatal(err)
	}
	exec := func(stmts ...Statement) {
		t.Helper()
		if err := db.Exec(stmts...); err != nil {
			t.Fatal(err)
		}
	}
	want := func(label string, rows ...value.Tuple) {
		t.Helper()
		got, err := db.Get("t")
		if err != nil {
			t.Fatal(err)
		}
		if w := value.RelationOf(2, rows...); !got.Equal(w) {
			t.Fatalf("%s: t = %v, want %v", label, got, w)
		}
		if ixs := indexesOn(db, "t"); len(ixs) != 0 {
			t.Fatalf("%s: full-key WHERE built store indexes %+v", label, ixs)
		}
	}

	exec(Delete("t", Eq("a", value.Int(1)), Eq("b", value.Str("nope"))))
	want("a row the store lacks", tup(1, "x"), tup(2, "y"), tup(3, "z"))
	exec(Delete("t", Eq("b", value.Str("x")), Eq("a", value.Int(1))))
	want("delete, columns out of order", tup(2, "y"), tup(3, "z"))
	// A numerically equal literal names the stored row, and the rewritten
	// row keeps the stored value, not the literal.
	exec(Update("t", []Assignment{{Col: "b", Val: value.Str("w")}}, Eq("a", value.Float(2)), Eq("b", value.Str("y"))))
	want("update by a widened literal", tup(2, "w"), tup(3, "z"))
	got, _ := db.Get("t")
	if r, ok := got.Find(tup(2, "w")); !ok || r[0].Kind() != value.KindInt {
		t.Fatalf("updated row %v, want the stored Int key", r)
	}
	exec(Delete("t", Eq("a", value.Int(3)), Eq("b", value.Str("z")), Condition{Col: "a", Op: datalog.OpGt, Val: value.Int(5)}))
	want("a further conjunct filters the named row", tup(2, "w"), tup(3, "z"))
	exec(Delete("t", Eq("a", value.Int(3)), Eq("a", value.Int(3)), Eq("b", value.Str("z"))))
	want("a repeated column", tup(2, "w"))

	// Inside a batch, each full-key statement names a row an earlier
	// transaction of the batch staged.
	bt := db.Batch(BatchOptions{MaxTxns: 100})
	for _, txn := range [][]Statement{
		{Insert("t", tup(9, "q")...)},
		{Update("t", []Assignment{{Col: "b", Val: value.Str("r")}}, Eq("a", value.Int(9)), Eq("b", value.Str("q")))},
		{Insert("t", tup(8, "p")...)},
		{Delete("t", Eq("a", value.Int(8)), Eq("b", value.Str("p")))},
		{Delete("t", Eq("a", value.Int(2)), Eq("b", value.Str("w")))},
	} {
		if err := bt.Exec(txn...); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	want("batched", tup(9, "r"))

	// A WHERE on part of the columns scans, then builds its index.
	exec(Delete("t", Eq("a", value.Int(9))))
	if ixs := indexesOn(db, "t"); len(ixs) != 1 || ixs[0].Positions != "0" {
		t.Fatalf("partial-key WHERE left indexes %+v, want one on position 0", ixs)
	}
}

// TestViewFullKeyDeleteBuildsNoIndex: a view DELETE naming the whole row of
// a 1-column view (Figure 6's vw_brands write) builds no index on the
// view, which would copy the view's every row.
func TestViewFullKeyDeleteBuildsNoIndex(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		db := setupUnion(t, incremental)
		if err := db.Exec(Delete("v", Eq("a", value.Int(2)))); err != nil {
			t.Fatal(err)
		}
		v, err := db.Get("v")
		if err != nil {
			t.Fatal(err)
		}
		if want := value.RelationOf(1, tup(1), tup(4)); !v.Equal(want) {
			t.Fatalf("incremental=%v: v = %v, want %v", incremental, v, want)
		}
		if ixs := indexesOn(db, "v"); len(ixs) != 0 {
			t.Fatalf("incremental=%v: view DELETE built indexes %+v", incremental, ixs)
		}
	}
}
