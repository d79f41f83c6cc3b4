package birds_test

import (
	"fmt"
	"log"

	"birds"
)

// The union view of the paper's Example 3.1: load a strategy, validate it
// (deriving the view definition), and inspect the result.
func Example_validate() {
	s, err := birds.Load(`
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), not v(X).
+r1(X) :- v(X), not r1(X), not r2(X).
`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.ValidateWith(nil, birds.Options{Oracle: birds.OracleConfig{
		MaxTuples: 3, RandomTrials: 600, ExhaustiveBudget: 20000, GuideBudget: 20000, Seed: 1,
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("valid:", res.Valid)
	fmt.Println("LVGN:", s.Class().LVGN())
	for _, r := range res.Get {
		fmt.Println(r)
	}
	// Output:
	// valid: true
	// LVGN: true
	// v(Y1) :- r1(Y1).
	// v(Y1) :- r2(Y1).
}

// Updating through a view on the in-memory engine: the strategy routes the
// insertion to r1 and the deletion to whichever table holds the tuple.
func Example_engine() {
	const strategy = `
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), not v(X).
+r1(X) :- v(X), not r1(X), not r2(X).
`
	db := birds.NewDB()
	decls, _ := birds.Parse("source r1(a:int).\nsource r2(a:int).\nview x(a:int).")
	for _, d := range decls.Sources {
		if err := db.CreateTable(d); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.LoadTable("r1", []birds.Tuple{{birds.Int(1)}}); err != nil {
		log.Fatal(err)
	}
	if err := db.LoadTable("r2", []birds.Tuple{{birds.Int(2)}, {birds.Int(4)}}); err != nil {
		log.Fatal(err)
	}
	get, _ := birds.ParseRules("v(X) :- r1(X).\nv(X) :- r2(X).")
	if _, err := db.CreateView(strategy, birds.ViewOptions{
		Incremental: true, SkipValidation: true, ExpectedGet: get,
	}); err != nil {
		log.Fatal(err)
	}

	if err := db.ExecSQL("BEGIN; INSERT INTO v VALUES (3); DELETE FROM v WHERE a = 2; END;"); err != nil {
		log.Fatal(err)
	}
	r1, _ := db.Get("r1")
	r2, _ := db.Get("r2")
	fmt.Println("r1 =", r1)
	fmt.Println("r2 =", r2)
	// Output:
	// r1 = {(1), (3)}
	// r2 = {(4)}
}

// Incrementalizing a strategy shows the ∂put program of the paper's
// Section 5: the view literals are replaced by view-delta literals.
func Example_incrementalize() {
	s, err := birds.Load(`
source r(a:int, b:int).
view v(a:int, b:int).
_|_ :- v(X,Y), not Y > 2.
+r(X,Y) :- v(X,Y), not r(X,Y).
m(X,Y) :- r(X,Y), Y > 2.
-r(X,Y) :- m(X,Y), not v(X,Y).
`)
	if err != nil {
		log.Fatal(err)
	}
	dput, err := s.Incrementalize()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range dput.NonConstraintRules() {
		fmt.Println(r)
	}
	// Output:
	// +r(X, Y) :- +v(X, Y), not r(X, Y).
	// -r(X, Y) :- r(X, Y), Y > 2, -v(X, Y).
}
