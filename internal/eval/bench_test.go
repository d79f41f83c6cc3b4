package eval

import (
	"fmt"
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

// Micro-benchmarks of the evaluation engine: scan, indexed join, negation
// anti-join, and delta-driven evaluation. These are the primitives whose
// costs determine the Figure 6 curves.

func benchDB(n int) *Database {
	db := NewDatabase()
	r := value.NewRelation(2)
	s := value.NewRelation(2)
	for i := 0; i < n; i++ {
		r.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % 100))})
		s.Add(value.Tuple{value.Int(int64(i % 100)), value.Int(int64(i))})
	}
	db.Set(datalog.Pred("r"), r)
	db.Set(datalog.Pred("s"), s)
	return db
}

func benchEval(b *testing.B, src string, n int) {
	b.Helper()
	prog, err := datalog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := New(prog)
	if err != nil {
		b.Fatal(err)
	}
	db := benchDB(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.Eval(db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalSelection(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchEval(b, `
source r(a:int, b:int).
view v(a:int).
sel(X,Y) :- r(X,Y), Y > 50.
`, n)
		})
	}
}

func BenchmarkEvalIndexedJoin(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchEval(b, `
source r(a:int, b:int).
source s(b:int, c:int).
view v(a:int).
j(X,Z) :- r(X,Y), s(Y,Z), Z < 10.
`, n)
		})
	}
}

func BenchmarkEvalNegation(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchEval(b, `
source r(a:int, b:int).
source s(b:int, c:int).
view v(a:int).
anti(X,Y) :- r(X,Y), not s(Y,_).
`, n)
		})
	}
}

// Delta-driven evaluation must be independent of the base size: the delta
// relation is the outer loop and the base relation is probed by index.
func BenchmarkEvalDeltaDriven(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prog, err := datalog.Parse(`
source r(a:int, b:int).
view v(a:int, b:int).
-r(X,Y) :- r(X,Y), Y > 50, -v(X,Y).
`)
			if err != nil {
				b.Fatal(err)
			}
			ev, err := New(prog)
			if err != nil {
				b.Fatal(err)
			}
			db := benchDB(n)
			db.Set(datalog.Del("v"), value.RelationOf(2,
				value.Tuple{value.Int(7), value.Int(7 % 100)}))
			// Warm the index.
			if err := ev.Eval(db); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ev.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDatabaseLookup measures a warm-index point probe: the key
// projection is hashed in place, so the probe itself must not allocate.
func BenchmarkDatabaseLookup(b *testing.B) {
	db := benchDB(100000)
	p := datalog.Pred("r")
	positions := []int{0}
	key := value.Tuple{value.Int(51234)}
	db.Index(p, positions) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(db.Lookup(p, positions, key)) != 1 {
			b.Fatal("probe must hit exactly one tuple")
		}
	}
}

// BenchmarkPutDelta measures one full putback step (evaluate the putdelta
// program, check non-contradiction, apply the source deltas) against a
// large base relation with warm indexes — the per-update cost the paper's
// Figure 6 argues stays proportional to the view delta.
func BenchmarkPutDelta(b *testing.B) {
	prog, err := datalog.Parse(`
source r(a:int, b:int).
view v(a:int, b:int).
+r(X,Y) :- +v(X,Y), not r(X,Y).
-r(X,Y) :- -v(X,Y), r(X,Y).
`)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := New(prog)
	if err != nil {
		b.Fatal(err)
	}
	db := benchDB(100000)
	// Warm the indexes with one throwaway round.
	db.Set(datalog.Ins("v"), value.RelationOf(2, value.Tuple{value.Int(-1), value.Int(0)}))
	db.Set(datalog.Del("v"), value.NewRelation(2))
	if err := ev.Eval(db); err != nil {
		b.Fatal(err)
	}
	if _, _, err := ApplyDeltas(db, prog.Sources); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(200000 + i)
		db.Update(datalog.Ins("v"), value.RelationOf(2, value.Tuple{value.Int(id), value.Int(1)}))
		db.Update(datalog.Del("v"), value.RelationOf(2, value.Tuple{value.Int(id - 1), value.Int(1)}))
		if err := ev.Eval(db); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ApplyDeltas(db, prog.Sources); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatabaseInsertDeleteWithIndexes(b *testing.B) {
	db := NewDatabase()
	p := datalog.Pred("r")
	rel := value.NewRelation(2)
	for i := 0; i < 100000; i++ {
		rel.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % 100))})
	}
	db.Set(p, rel)
	// Two live indexes to maintain.
	db.Index(p, []int{0})
	db.Index(p, []int{1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := value.Tuple{value.Int(int64(200000 + i)), value.Int(3)}
		db.Insert(p, t)
		db.Delete(p, t)
	}
}
