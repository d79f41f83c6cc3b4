package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"birds/internal/cdc"
	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// Tests for the view-write path: a view update applies only its base-table
// deltas, and every view — the updated ones included — is maintained from
// them by counting IVM, in its own predicate namespace, and checked against
// PutGet.

// createView registers a view with a known get and no oracle validation.
func createView(t *testing.T, db *DB, program, get string, incremental bool) {
	t.Helper()
	rules, err := parseRules(get)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView(program, ViewOptions{SkipValidation: true, ExpectedGet: rules, Incremental: incremental}); err != nil {
		t.Fatal(err)
	}
}

// assertFreshCounts checks that a view holds live maintenance state whose
// relations and support counts — the view's and its get-side auxiliaries'
// — equal those of a fresh counted evaluation over a copy of the store.
func assertFreshCounts(t *testing.T, db *DB, name string) {
	t.Helper()
	v := db.View(name)
	if !v.getEval.IVMReady(db.store) {
		t.Fatalf("view %s: support counts were dropped", name)
	}
	fresh, err := eval.New(v.getEval.Program())
	if err != nil {
		t.Fatal(err)
	}
	ref := db.store.Clone()
	if _, err := fresh.EvalDelta(ref, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range fresh.IDBOrder() {
		got, want := db.store.RelOrEmpty(p, ref.Rel(p).Arity()), ref.Rel(p)
		if !got.Equal(want) {
			t.Fatalf("view %s: %s = %v, want %v", name, p, got, want)
		}
		want.Each(func(tp value.Tuple) {
			if g, w := v.getEval.SupportCount(p, tp), fresh.SupportCount(p, tp); g != w {
				t.Fatalf("view %s: support of %s%v = %d, want %d", name, p, tp, g, w)
			}
		})
	}
}

// assertViewsCorrect compares every view against a from-scratch evaluation
// and against a fresh counted evaluation.
func assertViewsCorrect(t *testing.T, db *DB, step string, views ...string) {
	t.Helper()
	for _, vn := range views {
		got, err := db.Get(vn)
		if err != nil {
			t.Fatal(err)
		}
		if want := expectedView(t, db, vn); !got.Equal(want) {
			t.Fatalf("%s: %s = %v, want %v", step, vn, got, want)
		}
		assertFreshCounts(t, db, vn)
	}
}

// The §3.3 case study stack (as in TestViewOverViewCascade).
const (
	residentsProgram = `
source male(e:string, b:date).
source female(e:string, b:date).
source others(e:string, b:date, g:string).
view residents(e:string, b:date, g:string).
+male(E,B) :- residents(E,B,'M'), not male(E,B), not others(E,B,'M').
-male(E,B) :- male(E,B), not residents(E,B,'M').
+female(E,B) :- residents(E,B,G), G = 'F', not female(E,B), not others(E,B,G).
-female(E,B) :- female(E,B), not residents(E,B,'F').
+others(E,B,G) :- residents(E,B,G), not G = 'M', not G = 'F', not others(E,B,G).
-others(E,B,G) :- others(E,B,G), not residents(E,B,G).
`
	residents1962Program = `
source residents(e:string, b:date, g:string).
view residents1962(e:string, b:date, g:string).
_|_ :- residents1962(E,B,G), B > '1962-12-31'.
_|_ :- residents1962(E,B,G), B < '1962-01-01'.
+residents(E,B,G) :- residents1962(E,B,G), not residents(E,B,G).
-residents(E,B,G) :- residents(E,B,G), not B < '1962-01-01', not B > '1962-12-31', not residents1962(E,B,G).
`
	// A selection whose strategy and get both have an auxiliary named m.
	luxProgram = `
source items(i:int, p:int).
view lux(i:int, p:int).
_|_ :- lux(I,P), not P > 1000.
m(I,P) :- items(I,P), P > 1000.
+items(I,P) :- lux(I,P), not items(I,P).
-items(I,P) :- m(I,P), not lux(I,P).
`
	luxGet = `
m(I,P) :- items(I,P), P > 1000.
lux(I,P) :- m(I,P).
`
)

// TestViewWriteKeepsCountedIVM: a view update leaves every view's counted
// IVM in place — the updated view's, a cascade's intermediate view's and
// the bystanders' — and the next base write maintains them in O(|Δ|) to
// exactly the counts a fresh evaluation derives.
func TestViewWriteKeepsCountedIVM(t *testing.T) {
	views := []string{"lux", "residents", "residents1962"}
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			db := NewDB()
			for _, d := range []string{
				"items(i:int, p:int).",
				"male(e:string, b:date).",
				"female(e:string, b:date).",
				"others(e:string, b:date, g:string).",
			} {
				if err := db.CreateTable(mustDecl(t, d)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.LoadTable("items", []value.Tuple{tup(1, 500), tup(2, 1500), tup(3, 2500)}); err != nil {
				t.Fatal(err)
			}
			if err := db.LoadTable("male", []value.Tuple{tup("bob", "1962-03-01"), tup("jim", "1950-01-01")}); err != nil {
				t.Fatal(err)
			}
			createView(t, db, luxProgram, luxGet, incremental)
			for _, prog := range []string{residentsProgram, residents1962Program} {
				if _, err := db.CreateView(prog, ViewOptions{Incremental: incremental, Oracle: testOracle()}); err != nil {
					t.Fatal(err)
				}
			}
			for _, vn := range views {
				assertFreshCounts(t, db, vn)
			}

			viewWrites := [][]Statement{
				{Insert("lux", value.Int(7), value.Int(1200))},
				{Delete("lux", Eq("i", value.Int(2)))},
				{Insert("residents", value.Str("zoe"), value.Str("1970-01-01"), value.Str("X"))},
				{Insert("residents1962", value.Str("eva"), value.Str("1962-11-30"), value.Str("F"))},
				{Delete("residents1962", Eq("e", value.Str("bob")))},
				{Update("residents", []Assignment{{Col: "g", Val: value.Str("F")}}, Eq("e", value.Str("jim")))},
			}
			for i, w := range viewWrites {
				if err := db.Exec(w...); err != nil {
					t.Fatalf("view write %d: %v", i, err)
				}
				for _, vn := range views {
					if db.Stale(vn) || !db.View(vn).getEval.IVMReady(db.store) {
						t.Fatalf("view write %d (%s): %s lost its counted IVM", i, w[0].Target, vn)
					}
				}
				assertViewsCorrect(t, db, fmt.Sprintf("after view write %d", i), views...)
				// Base writes right after the view write: a selected item,
				// a 1962 male and a female outside 1962.
				for _, s := range []Statement{
					Insert("items", value.Int(int64(100+i)), value.Int(2000)),
					Insert("male", value.Str(fmt.Sprintf("m%d", i)), value.Str("1962-05-05")),
					Insert("female", value.Str(fmt.Sprintf("f%d", i)), value.Str("1980-05-05")),
				} {
					if err := db.Exec(s); err != nil {
						t.Fatal(err)
					}
				}
				assertViewsCorrect(t, db, fmt.Sprintf("after the base writes of step %d", i), views...)
			}
		})
	}
}

// TestPutGetViolationFailsTransaction: a view registered without validation
// whose strategy cannot realize an update — j's strategy only deletes the
// r1 rows of keys that leave j — fails that update with ErrPutGetViolation,
// and the failed transaction leaves no trace: no seq, no WAL record, every
// table and view as before. The engine then takes valid writes again.
func TestPutGetViolationFailsTransaction(t *testing.T) {
	cases := []struct {
		name string
		stmt Statement
	}{
		// No source change at all: the delete-only strategy cannot insert.
		{"insert", Insert("j", value.Int(5), value.Int(50))},
		// Source changes that the maintenance applies before the check:
		// key 8 leaves j (r1(8,2) is deleted), but (7,10) stays, since
		// key 7 keeps (7,20).
		{"delete", Delete("j", Eq("c", value.Int(10)))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := maintainDB(t)
			if err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, s := range []Statement{
				Insert("r1", value.Int(7), value.Int(1)),
				Insert("r1", value.Int(8), value.Int(2)),
				Insert("r2", value.Int(1), value.Int(10)),
				Insert("r2", value.Int(1), value.Int(20)),
				Insert("r2", value.Int(2), value.Int(10)),
			} {
				if err := db.Exec(s); err != nil {
					t.Fatal(err)
				}
			}
			sub, err := db.Subscribe("j", cdc.SubOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			pre := make(map[string]*value.Relation)
			for _, n := range crashRels {
				if pre[n], err = db.Get(n); err != nil {
					t.Fatal(err)
				}
			}
			lsn, seq := db.LastLSN(), db.CDCStats().Seq

			err = db.Exec(c.stmt)
			if !errors.Is(err, ErrPutGetViolation) {
				t.Fatalf("err = %v, want ErrPutGetViolation", err)
			}
			if db.ReadOnly() != nil {
				t.Fatal("a PutGet violation degraded the engine")
			}
			if got := db.LastLSN(); got != lsn {
				t.Errorf("LastLSN = %d, want %d", got, lsn)
			}
			if got := db.CDCStats().Seq; got != seq {
				t.Errorf("hub seq = %d, want %d", got, seq)
			}
			// The store itself, not a refresh of it: the rollback restored
			// the view rows too.
			for _, n := range crashRels {
				if got := db.store.RelOrEmpty(datalog.Pred(n), pre[n].Arity()); !got.Equal(pre[n]) {
					t.Errorf("%s = %v, want the pre-state %v", n, got, pre[n])
				}
			}

			// A valid view write — through top, cascading into j, which the
			// failed delete left stale — and a base write go through.
			if err := db.Exec(Delete("top", Eq("a", value.Int(8)))); err != nil {
				t.Fatal(err)
			}
			if err := db.Exec(Insert("r1", value.Int(9), value.Int(1))); err != nil {
				t.Fatal(err)
			}
			if got := db.LastLSN(); got != lsn+2 {
				t.Errorf("LastLSN = %d after two writes, want %d", got, lsn+2)
			}
			assertViewsCorrect(t, db, "after the valid writes", crashViews...)
		})
	}
}

// TestCollidingPutbackAndGetAux: view vb's strategy evaluates an auxiliary
// named m on every update of vb (over the full base table, without ∂put),
// and view va's get program maintains a counted auxiliary of the same
// name. In their own namespaces neither clobbers the other: interleaved
// view and base writes keep both views correct and their counts live.
func TestCollidingPutbackAndGetAux(t *testing.T) {
	const (
		va = `
source r(a:int, b:int).
view va(a:int).
-r(A,B) :- r(A,B), B < 2, not va(A).
`
		vaGet = `
m(A) :- r(A,B), B < 2.
va(A) :- m(A).
`
		vb = `
source r(a:int, b:int).
view vb(a:int, b:int).
_|_ :- vb(A,B), not B >= 2.
m(A,B) :- r(A,B), B >= 2.
+r(A,B) :- vb(A,B), not r(A,B).
-r(A,B) :- m(A,B), not vb(A,B).
`
		vbGet = `vb(A,B) :- r(A,B), B >= 2.`
	)
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			db := NewDB()
			if err := db.CreateTable(mustDecl(t, "r(a:int, b:int).")); err != nil {
				t.Fatal(err)
			}
			createView(t, db, va, vaGet, incremental)
			createView(t, db, vb, vbGet, incremental)
			rng := rand.New(rand.NewSource(5))
			for step := 0; step < 120; step++ {
				a, b := value.Int(int64(rng.Intn(5))), value.Int(int64(rng.Intn(4)))
				var s Statement
				switch rng.Intn(5) {
				case 0:
					s = Insert("r", a, b)
				case 1:
					s = Delete("r", Eq("a", a), Eq("b", b))
				case 2:
					s = Delete("va", Eq("a", a))
				case 3:
					s = Insert("vb", a, value.Int(int64(2+rng.Intn(2))))
				default:
					s = Delete("vb", Eq("a", a))
				}
				if err := db.Exec(s); err != nil {
					t.Fatalf("step %d (%s): %v", step, s.Target, err)
				}
				assertViewsCorrect(t, db, fmt.Sprintf("step %d (%s)", step, s.Target), "va", "vb")
			}
		})
	}
}
