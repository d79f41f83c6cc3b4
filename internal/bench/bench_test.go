package bench

import (
	"testing"

	"birds/internal/core"
	"birds/internal/engine"
	"birds/internal/sat"
)

func testOptions() core.Options {
	return core.Options{Oracle: sat.Config{
		MaxTuples:        3,
		RandomTrials:     800,
		ExhaustiveBudget: 30000,
		GuideBudget:      30000,
		Seed:             1,
	}}
}

func TestTable1SuiteShape(t *testing.T) {
	entries := Table1()
	if len(entries) != 32 {
		t.Fatalf("Table 1 has 32 rows, got %d", len(entries))
	}
	for i, e := range entries {
		if e.ID != i+1 {
			t.Errorf("entry %d has ID %d", i, e.ID)
		}
		if e.Name == "" || e.Operators == "" {
			t.Errorf("entry %d incomplete: %+v", i, e)
		}
		if e.Program == "" && e.ID != 23 {
			t.Errorf("entry %d (%s) has no program", e.ID, e.Name)
		}
	}
}

// Every expressible benchmark strategy must validate, its LVGN / NR
// classification must match the paper's column, and the expected view
// definition must be confirmed.
func TestTable1Validation(t *testing.T) {
	opts := testOptions()
	for _, e := range Table1() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			row := RunTable1Entry(e, opts)
			if e.Program == "" {
				if row.Err == nil {
					t.Fatal("row 23 must report non-expressibility")
				}
				return
			}
			if row.Err != nil {
				t.Fatalf("infrastructure error: %v", row.Err)
			}
			if row.LVGN != e.WantLVGN {
				t.Errorf("LVGN = %v, paper says %v", row.LVGN, e.WantLVGN)
			}
			if row.NR != e.WantNR {
				t.Errorf("NR-Datalog = %v, paper says %v", row.NR, e.WantNR)
			}
			if !row.Valid {
				t.Fatalf("strategy should validate: %s", row.FailureDetail)
			}
			if !row.UsedExpected {
				t.Errorf("expected get should be confirmed, derivation used instead")
			}
			if row.SQLBytes == 0 {
				t.Error("compiled SQL is empty")
			}
			if row.LOC == 0 {
				t.Error("LOC not recorded")
			}
		})
	}
}

// RunTable1Parallel must reproduce the sequential rows: same order, same
// classification, same validation outcome.
func TestRunTable1ParallelAgrees(t *testing.T) {
	t.Parallel()
	rows := RunTable1Parallel(testOptions(), 0)
	entries := Table1()
	if len(rows) != len(entries) {
		t.Fatalf("got %d rows, want %d", len(rows), len(entries))
	}
	for i, row := range rows {
		e := entries[i]
		if row.Entry.ID != e.ID {
			t.Fatalf("row %d is entry %d; parallel run reordered rows", i, row.Entry.ID)
		}
		if e.Program == "" {
			continue
		}
		if row.Err != nil {
			t.Errorf("%s: %v", e.Name, row.Err)
			continue
		}
		if !row.Valid || row.LVGN != e.WantLVGN || row.NR != e.WantNR {
			t.Errorf("%s: Valid=%v LVGN=%v NR=%v, want valid with LVGN=%v NR=%v (%s)",
				e.Name, row.Valid, row.LVGN, row.NR, e.WantLVGN, e.WantNR, row.FailureDetail)
		}
	}
}

func TestFormatTable1(t *testing.T) {
	rows := []Table1Row{
		{Entry: Table1Entry{ID: 23, Name: "emp_view", Operators: "IJ,P,A"}},
	}
	out := FormatTable1(rows)
	if out == "" {
		t.Fatal("empty formatting")
	}
}

func TestFig6ViewsRunTiny(t *testing.T) {
	for _, v := range Fig6Views() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			for _, incremental := range []bool{false, true} {
				pts, err := RunFig6(v, []int{200, 400}, incremental, 4, 1)
				if err != nil {
					t.Fatalf("incremental=%v: %v", incremental, err)
				}
				if len(pts) != 2 {
					t.Fatalf("want 2 points, got %d", len(pts))
				}
				for _, p := range pts {
					if p.PerUpdate <= 0 {
						t.Errorf("non-positive timing at size %d", p.Size)
					}
				}
			}
		})
	}
}

// The full and the incremental strategy must produce identical view and
// base-table contents on the Figure 6 workloads after the same transaction
// stream: the differential harness behind the benchmark's ∂put ≡ put
// claim.
func TestFig6ModesAgree(t *testing.T) {
	for _, v := range Fig6Views() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			const n = 300
			type cfg struct {
				name        string
				incremental bool
			}
			cfgs := []cfg{{"full", false}, {"inc", true}}
			dbs := make([]*engine.DB, len(cfgs))
			for i, c := range cfgs {
				db, err := SetupFig6(v, n, c.incremental, 7, 0)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				dbs[i] = db
			}
			for round := 1; round <= 6; round++ {
				for _, txn := range v.Update(n, round) {
					ref := dbs[0].Exec(txn...)
					for i := 1; i < len(dbs); i++ {
						if e := dbs[i].Exec(txn...); (e == nil) != (ref == nil) {
							t.Fatalf("round %d: error mismatch %s vs %s: %v vs %v",
								round, cfgs[0].name, cfgs[i].name, ref, e)
						}
					}
				}
			}
			// Compare the view and every registered base table.
			var names []string
			for _, info := range dbs[0].Relations() {
				names = append(names, info.Name)
			}
			for _, name := range names {
				ref, err := dbs[0].Rel(name)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(dbs); i++ {
					got, err := dbs[i].Rel(name)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(ref) {
						t.Fatalf("%s diverged between %s and %s: %d vs %d tuples",
							name, cfgs[0].name, cfgs[i].name, ref.Len(), got.Len())
					}
				}
			}
		})
	}
}

func TestFig6ViewByName(t *testing.T) {
	if _, err := Fig6ViewByName("luxuryitems"); err != nil {
		t.Error(err)
	}
	if _, err := Fig6ViewByName("nope"); err == nil {
		t.Error("unknown view must fail")
	}
}

// The DML-maintenance fixture must keep its views on the incremental path
// (clean, no dirty fallback) and exactly consistent with a fresh database
// replaying the same writes.
func TestDMLMaintenanceFixture(t *testing.T) {
	const n = 200
	db, err := SetupDMLMaintenance(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 25; i++ {
		if err := DMLMaintenanceTxn(db, n, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, vn := range DMLMaintenanceViews() {
		if db.Stale(vn) {
			t.Fatalf("view %s fell off the incremental path", vn)
		}
	}
	// Replay on a fresh database: contents must agree view by view.
	ref, err := SetupDMLMaintenance(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 25; i++ {
		if err := DMLMaintenanceTxn(ref, n, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, vn := range DMLMaintenanceViews() {
		got, err := db.Rel(vn)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Rel(vn)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s diverged from replay: %v vs %v", vn, got, want)
		}
	}
}
