// Benchmarks of what the repository benchmark (perfbench/, declared in
// BENCHMARK.json) does not measure itself:
//
//   - BenchmarkTable1Validation — Table 1: validation time per benchmark
//     view (the "Validation Time (s)" column; run with -bench Table1).
//     perfbench's validate workload reports the suite as a whole and pins
//     the outcomes against perfbench/table1_golden.json.
//   - BenchmarkTable1Suite — the whole suite in one pass, for allocation
//     counts (-benchmem).
//   - BenchmarkDMLMaintenance — the engine's table-write path with views
//     maintained by counting IVM, across base sizes.
//   - BenchmarkBaseWriteAfterViewWrite — a base-table write that follows a
//     view write, across base sizes.
//   - BenchmarkAblation* — design-choice ablations, each explained in its
//     own comment below: delta-rule unfolding inside ∂put, the Lemma 5.2
//     substitution vs the general pipeline, expected-get vs derivation in
//     the validator, and Algorithm 2 transaction merging.
//
// Figure 6 (original vs ∂put update time), group commit, the WAL and
// recovery are measured by perfbench: bash perfbench/run.sh --workload
// viewupdate --trace 1.
package birds_test

import (
	"fmt"
	"testing"

	"birds"
	"birds/internal/bench"
	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/sat"
	"birds/internal/value"
)

func benchOracle() sat.Config {
	return sat.Config{
		MaxTuples:        3,
		RandomTrials:     800,
		ExhaustiveBudget: 30000,
		GuideBudget:      30000,
		Seed:             1,
	}
}

// BenchmarkTable1Validation regenerates the validation-time column of
// Table 1, one sub-benchmark per view.
func BenchmarkTable1Validation(b *testing.B) {
	opts := core.Options{Oracle: benchOracle()}
	for _, e := range bench.Table1() {
		if e.Program == "" {
			continue // row 23: aggregation, not expressible
		}
		e := e
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row := bench.RunTable1Entry(e, opts)
				if row.Err != nil || !row.Valid {
					b.Fatalf("%s: %v %s", e.Name, row.Err, row.FailureDetail)
				}
			}
		})
	}
}

// BenchmarkTable1Suite measures the whole 32-view suite end to end, one
// entry after another.
func BenchmarkTable1Suite(b *testing.B) {
	opts := core.Options{Oracle: benchOracle()}
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range bench.RunTable1(opts) {
				if r.Entry.Program != "" && (r.Err != nil || !r.Valid) {
					b.Fatalf("%s: %v %s", r.Entry.Name, r.Err, r.FailureDetail)
				}
			}
		}
	})
}

// BenchmarkDMLMaintenance measures the engine's steady-state table-write
// path with dependent views (a selection and a join) maintained by
// counting IVM, sweeping the base size at a fixed per-transaction delta.
// The expected curve is flat: growing the base 10× must not grow the
// per-write cost materially (the acceptance bound is < 2×), because every
// write propagates O(|Δ|) join work instead of rematerializing O(|DB|)
// views.
func BenchmarkDMLMaintenance(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, err := bench.SetupDMLMaintenance(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bench.DMLMaintenanceTxn(db, n, i+1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, vn := range bench.DMLMaintenanceViews() {
				if db.Stale(vn) {
					b.Fatalf("view %s fell off the incremental path", vn)
				}
			}
		})
	}
}

// BenchmarkBaseWriteAfterViewWrite measures a base-table insert that
// follows a view update, on the luxuryitems fixture (the incremental
// strategy). Each iteration runs one untimed view round of the Figure 6
// stream — insert a view tuple, delete the previous round's — and then
// times one items insert that the view selects. A view update is
// maintained like any other write, so the view keeps its support counts
// and the insert costs O(|Δ|): the curve should be flat across base sizes.
func BenchmarkBaseWriteAfterViewWrite(b *testing.B) {
	v, err := bench.Fig6ViewByName("luxuryitems")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10000, 40000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, err := bench.SetupFig6(v, n, true, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, txn := range v.Update(n, i+1) {
					if err := db.Exec(txn...); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				id := int64(4*n + i)
				if err := db.Exec(birds.Insert("items", birds.Int(id), birds.Str("b"), birds.Int(1500))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if db.Stale(v.Name) {
				b.Fatalf("view %s fell off the incremental path", v.Name)
			}
		})
	}
}

// BenchmarkAblationUnfolding compares ∂put evaluation with and without the
// delta-rule unfolding optimization (Lemma 5.2 substitution alone leaves
// intermediate relations like m(X,Y) :- r(X,Y), Y > 2 materialized over the
// full base table on every update).
func BenchmarkAblationUnfolding(b *testing.B) {
	prog, err := datalog.Parse(bench.LuxuryItemsProgram)
	if err != nil {
		b.Fatal(err)
	}
	const n = 50000
	mkDB := func() *eval.Database {
		db := eval.NewDatabase()
		items := value.NewRelation(3)
		for i := 0; i < n; i++ {
			items.Add(value.Tuple{value.Int(int64(i)), value.Str(fmt.Sprintf("it%d", i)), value.Int(int64(i%2000 + 1))})
		}
		db.Set(datalog.Pred("items"), items)
		return db
	}
	runUpdates := func(b *testing.B, ev *eval.Evaluator) {
		db := mkDB()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := int64(n + i)
			ins := value.RelationOf(3, value.Tuple{value.Int(id), value.Str("x"), value.Int(1500)})
			db.Set(datalog.Ins("luxuryitems"), ins)
			db.Set(datalog.Del("luxuryitems"), value.NewRelation(3))
			if err := ev.Eval(db); err != nil {
				b.Fatal(err)
			}
			if _, _, err := eval.ApplyDeltas(db, prog.Sources); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("lemma52-only", func(b *testing.B) {
		inc, err := core.IncrementalizeLVGN(prog)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := eval.New(inc)
		if err != nil {
			b.Fatal(err)
		}
		runUpdates(b, ev)
	})
	b.Run("with-unfolding", func(b *testing.B) {
		inc, err := core.Incrementalize(prog)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := eval.New(inc)
		if err != nil {
			b.Fatal(err)
		}
		runUpdates(b, ev)
	})
}

// BenchmarkAblationGeneralVsLVGN compares the two incrementalization
// algorithms on an LVGN view where both apply: the Lemma 5.2 substitution
// (with unfolding) against the general Appendix C pipeline, which maintains
// materialized intermediates and their new versions.
func BenchmarkAblationGeneralVsLVGN(b *testing.B) {
	prog, err := datalog.Parse(bench.LuxuryItemsProgram)
	if err != nil {
		b.Fatal(err)
	}
	const n = 20000
	mkDB := func() *eval.Database {
		db := eval.NewDatabase()
		items := value.NewRelation(3)
		for i := 0; i < n; i++ {
			items.Add(value.Tuple{value.Int(int64(i)), value.Str(fmt.Sprintf("it%d", i)), value.Int(int64(i%2000 + 1))})
		}
		db.Set(datalog.Pred("items"), items)
		return db
	}
	viewOf := func(db *eval.Database) *value.Relation {
		getEv, err := eval.New(core.GetProgram(prog, mustRulesB(b,
			"luxuryitems(I,N,P) :- items(I,N,P), P > 1000.")))
		if err != nil {
			b.Fatal(err)
		}
		rel, err := getEv.EvalQuery(db, datalog.Pred("luxuryitems"))
		if err != nil {
			b.Fatal(err)
		}
		return rel.Clone()
	}
	b.Run("lvgn-dput", func(b *testing.B) {
		inc, err := core.Incrementalize(prog)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := eval.New(inc)
		if err != nil {
			b.Fatal(err)
		}
		db := mkDB()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := int64(2*n + i)
			db.Set(datalog.Ins("luxuryitems"), value.RelationOf(3,
				value.Tuple{value.Int(id), value.Str("x"), value.Int(1500)}))
			db.Set(datalog.Del("luxuryitems"), value.NewRelation(3))
			if err := ev.Eval(db); err != nil {
				b.Fatal(err)
			}
			if _, _, err := eval.ApplyDeltas(db, prog.Sources); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("general-binarized", func(b *testing.B) {
		gi, err := core.NewGeneralIncremental(prog)
		if err != nil {
			b.Fatal(err)
		}
		db := mkDB()
		db.Set(datalog.Pred("luxuryitems"), viewOf(db))
		if err := gi.Init(db); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := int64(4*n + i)
			ins := value.RelationOf(3, value.Tuple{value.Int(id), value.Str("x"), value.Int(1500)})
			if err := gi.Apply(db, ins, value.NewRelation(3)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mustRulesB(b *testing.B, srcs ...string) []*datalog.Rule {
	b.Helper()
	var out []*datalog.Rule
	for _, s := range srcs {
		r, err := datalog.ParseRule(s)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// BenchmarkAblationExpectedGet compares Algorithm 1 with the expected view
// definition supplied (confirmation) against derivation from φ2.
func BenchmarkAblationExpectedGet(b *testing.B) {
	var entry bench.Table1Entry
	for _, e := range bench.Table1() {
		if e.Name == "residents" {
			entry = e
		}
	}
	prog, err := datalog.Parse(entry.Program)
	if err != nil {
		b.Fatal(err)
	}
	expected, err := bench.ParseGetRules(entry.ExpectedGet)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Oracle: benchOracle()}
	b.Run("expected-get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pb, err := core.NewPutback(prog)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Validate(pb, expected, opts)
			if err != nil || !res.Valid {
				b.Fatalf("%v %v", err, res.Failure)
			}
		}
	})
	b.Run("derivation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pb, err := core.NewPutback(prog)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Validate(pb, nil, opts)
			if err != nil || !res.Valid {
				b.Fatalf("%v %v", err, res.Failure)
			}
		}
	})
}

// BenchmarkAblationTransactionMerge compares one merged transaction of k
// statements (Algorithm 2) against k single-statement transactions.
func BenchmarkAblationTransactionMerge(b *testing.B) {
	const n = 20000
	const k = 16
	v, err := bench.Fig6ViewByName("luxuryitems")
	if err != nil {
		b.Fatal(err)
	}
	setup := func(b *testing.B) *birds.DB {
		db, err := bench.SetupFig6(v, n, true, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		// Warm indexes.
		if err := db.Exec(birds.Insert("luxuryitems", birds.Int(n+1), birds.Str("w"), birds.Int(1500))); err != nil {
			b.Fatal(err)
		}
		return db
	}
	stmts := func(base int) []birds.Statement {
		out := make([]birds.Statement, 0, k)
		for j := 0; j < k; j++ {
			out = append(out, birds.Insert("luxuryitems",
				birds.Int(int64(base+j)), birds.Str("m"), birds.Int(2000)))
		}
		return out
	}
	b.Run("merged", func(b *testing.B) {
		db := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Exec(stmts(2*n + i*k)...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("separate", func(b *testing.B) {
		db := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range stmts(4*n + i*k) {
				if err := db.Exec(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
