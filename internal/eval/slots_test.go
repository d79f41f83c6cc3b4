package eval

import (
	"fmt"
	"sync"
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

// slotsSrc reads two sources, derives through an auxiliary predicate and
// has a constraint over a derived and a base relation, so that the rule
// plans, the installs and the constraint plans all resolve slots.
const slotsSrc = `
source r(a:int, b:int).
source s(b:int).
view v(a:int).
j(X, Y) :- r(X, Y), s(Y).
n(X) :- r(X, _), not s(X).
v(X) :- j(X, _).
v(X) :- n(X).
_|_ :- v(X), s(X), X = 3.
`

// checkAgainstReference evaluates db with ev and requires every IDB
// relation to equal the reference evaluator's, and Violations to report a
// violation exactly when v and s share the tuple 3.
func checkAgainstReference(t *testing.T, ev *Evaluator, db *Database, label string) {
	t.Helper()
	want := refEval(t, ev.Program(), db)
	if err := ev.Eval(db); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSameIDB(t, ev.Program(), db, want, label)
	violated, err := ev.Violations(db)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	three := value.Tuple{value.Int(3)}
	wantViolated := db.RelOrEmpty(datalog.Pred("v"), 1).Contains(three) && db.RelOrEmpty(datalog.Pred("s"), 1).Contains(three)
	if (len(violated) > 0) != wantViolated {
		t.Fatalf("%s: Violations = %v, want violated %v\n%s", label, violated, wantViolated, db)
	}
}

// TestSlotsAlternateDatabases runs one evaluator over two databases whose
// predicates sit at different slots, alternately, then over a clone, with
// each database changed between its evaluations: every evaluation reads
// the database it was given, not the one whose slots it cached last.
func TestSlotsAlternateDatabases(t *testing.T) {
	ev := mustEval(t, slotsSrc)
	a := NewDatabase()
	a.Set(datalog.Pred("r"), pairs([2]int64{1, 2}, [2]int64{3, 4}, [2]int64{5, 5}))
	a.Set(datalog.Pred("s"), ints(2, 3))
	b := NewDatabase()
	b.Set(datalog.Pred("unrelated"), ints(9))
	b.Set(datalog.Pred("s"), ints(4))
	b.Set(datalog.Pred("r"), pairs([2]int64{3, 4}, [2]int64{7, 8}))
	for round := 0; round < 3; round++ {
		checkAgainstReference(t, ev, a, fmt.Sprintf("round %d, a", round))
		checkAgainstReference(t, ev, b, fmt.Sprintf("round %d, b", round))
		a.Insert(datalog.Pred("r"), value.Tuple{value.Int(int64(10 + round)), value.Int(3)})
		b.Delete(datalog.Pred("s"), value.Tuple{value.Int(4)})
		b.Insert(datalog.Pred("s"), value.Tuple{value.Int(int64(3 + 5*round))})
	}
	c := a.Clone()
	if c.id == a.id {
		t.Fatalf("Clone kept id %d", a.id)
	}
	c.Delete(datalog.Pred("s"), value.Tuple{value.Int(3)})
	checkAgainstReference(t, ev, c, "clone")
	checkAgainstReference(t, ev, a, "a after its clone")
}

// TestSlotsPredicateSetLater evaluates a database that lacks s, and then
// the same database once s was set, once with an unrelated slot added in
// between: an absent predicate is looked up again when the database has
// gained slots.
func TestSlotsPredicateSetLater(t *testing.T) {
	ev := mustEval(t, slotsSrc)
	db := NewDatabase()
	db.Set(datalog.Pred("r"), pairs([2]int64{1, 2}, [2]int64{3, 3}))
	checkAgainstReference(t, ev, db, "without s")
	if got := db.Rel(datalog.Pred("j")); got == nil || !got.Empty() {
		t.Fatalf("j = %v without s, want an installed empty relation", got)
	}
	db.Set(datalog.Pred("s"), ints(2, 3))
	checkAgainstReference(t, ev, db, "s set")
	if got := db.Rel(datalog.Pred("j")); !got.Equal(pairs([2]int64{1, 2}, [2]int64{3, 3})) {
		t.Fatalf("j = %v, want {(1,2), (3,3)}", got)
	}

	other := NewDatabase()
	other.Set(datalog.Pred("r"), pairs([2]int64{4, 4}))
	checkAgainstReference(t, ev, other, "other without s")
	other.Set(datalog.Pred("unrelated"), ints(1))
	checkAgainstReference(t, ev, other, "other with an unrelated slot")
	other.Insert(datalog.Pred("s"), value.Tuple{value.Int(4)})
	checkAgainstReference(t, ev, other, "other with s inserted")
	if got := other.Rel(datalog.Pred("j")); !got.Equal(pairs([2]int64{4, 4})) {
		t.Fatalf("j = %v, want {(4,4)}", got)
	}
}

// TestSlotsViolationsAfterEval runs Violations on the database the last
// Eval ran over, on another database that Eval never saw, and on the first
// again, with a relation the constraint reads changed in between.
func TestSlotsViolationsAfterEval(t *testing.T) {
	ev := mustEval(t, slotsSrc)
	bad := NewDatabase()
	bad.Set(datalog.Pred("r"), pairs([2]int64{3, 3}))
	bad.Set(datalog.Pred("s"), ints(3))
	good := NewDatabase()
	good.Set(datalog.Pred("s"), ints(3))
	good.Set(datalog.Pred("v"), ints(2))
	if err := ev.Eval(bad); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		db   *Database
		want int
	}{
		{"after Eval", bad, 1},
		{"on a database Eval never saw", good, 0},
		{"back on the evaluated database", bad, 1},
	} {
		violated, err := ev.Violations(tc.db)
		if err != nil {
			t.Fatal(err)
		}
		if len(violated) != tc.want {
			t.Fatalf("%s: %d violations, want %d", tc.name, len(violated), tc.want)
		}
	}
	bad.Delete(datalog.Pred("s"), value.Tuple{value.Int(3)})
	if violated, err := ev.Violations(bad); err != nil || len(violated) != 0 {
		t.Fatalf("after deleting s(3): %v, %v; want no violation", violated, err)
	}
	good.Insert(datalog.Pred("v"), value.Tuple{value.Int(3)})
	if violated, err := ev.Violations(good); err != nil || len(violated) != 1 {
		t.Fatalf("after inserting v(3): %v, %v; want one violation", violated, err)
	}
}

// TestSlotsConcurrentReaders runs the read methods from many goroutines at
// once, on present and absent predicates, as the engine's readers do under
// its shared lock: under -race no read writes the database, and none adds
// a slot.
func TestSlotsConcurrentReaders(t *testing.T) {
	db := NewDatabase()
	db.Set(datalog.Pred("r"), pairs([2]int64{1, 2}, [2]int64{1, 3}, [2]int64{2, 3}))
	db.Index(datalog.Pred("r"), []int{0})
	slots := len(db.preds)
	other := db.Clone()
	absent := datalog.Pred("absent")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, ok := db.LookupExisting(datalog.Pred("r"), []int{0}, value.Tuple{value.Int(1)}); !ok || len(got) != 2 {
					t.Errorf("LookupExisting r[0]=1 = %v, %v; want two tuples", got, ok)
					return
				}
				if _, ok := db.LookupExisting(absent, []int{0}, value.Tuple{value.Int(1)}); ok {
					t.Error("LookupExisting found an index on an absent predicate")
					return
				}
				if db.Rel(absent) != nil || !db.RelOrEmpty(absent, 1).Empty() || db.Rel(datalog.Pred("r")).Len() != 3 {
					t.Error("Rel and RelOrEmpty disagree with the database")
					return
				}
				if !db.Equal(other, []datalog.PredSym{datalog.Pred("r"), absent}) || len(db.Preds()) != 1 || db.String() == "" {
					t.Error("Equal, Preds or String disagree with the database")
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(db.preds) != slots || len(db.slots) != slots {
		t.Fatalf("readers grew the database from %d to %d slots (%d mapped)", slots, len(db.preds), len(db.slots))
	}
}
