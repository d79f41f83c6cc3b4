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

// Every Figure 6 view must set up and run its update stream at two tiny
// sizes in both modes without error, with the view still readable after.
func TestFig6ViewsRunTiny(t *testing.T) {
	for _, v := range Fig6Views() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			for _, incremental := range []bool{false, true} {
				for _, n := range []int{200, 400} {
					db, err := SetupFig6(v, n, incremental, 1, 0)
					if err != nil {
						t.Fatalf("incremental=%v size %d: %v", incremental, n, err)
					}
					updates := 0
					for round := 1; round <= 4; round++ {
						for _, txn := range v.Update(n, round) {
							if err := db.Exec(txn...); err != nil {
								t.Fatalf("incremental=%v size %d round %d: %v", incremental, n, round, err)
							}
							updates++
						}
					}
					if updates == 0 {
						t.Fatalf("incremental=%v size %d: empty update stream", incremental, n)
					}
					if _, err := db.Get(v.Name); err != nil {
						t.Fatalf("incremental=%v size %d: %v", incremental, n, err)
					}
				}
			}
		})
	}
}

// The full and the incremental strategy must both run the Figure 6
// update stream without error and produce identical view and base-table
// contents after it: the differential harness behind the benchmark's
// ∂put ≡ put claim.
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
					for i, db := range dbs {
						if err := db.Exec(txn...); err != nil {
							t.Fatalf("round %d, %s: %v", round, cfgs[i].name, err)
						}
					}
				}
			}
			// Compare the view and every registered base table.
			infos, err := dbs[0].Relations()
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, info := range infos {
				names = append(names, info.Name)
			}
			for _, name := range names {
				ref, err := dbs[0].Get(name)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(dbs); i++ {
					got, err := dbs[i].Get(name)
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
		got, err := db.Get(vn)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Get(vn)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s diverged from replay: %v vs %v", vn, got, want)
		}
	}
}
