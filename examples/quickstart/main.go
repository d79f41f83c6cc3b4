// Quickstart: the union view of Example 3.1 of the paper, end to end —
// program a view update strategy in Datalog, validate it (the view
// definition is derived automatically), install it as an updatable view on
// the in-memory engine, and update through the view.
package main

import (
	"fmt"
	"log"

	"birds"
)

const strategy = `
% A view v over the union of r1 and r2. Updates are disambiguated by this
% strategy: deletions are propagated to whichever table holds the tuple,
% and insertions go to r1.
source r1(a:int).
source r2(a:int).
view v(a:int).

-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), not v(X).
+r1(X) :- v(X), not r1(X), not r2(X).
`

func main() {
	// 1. Load and validate the strategy. Validation derives the view
	// definition get from the update strategy (Theorem 2.1: it is unique).
	s, err := birds.Load(strategy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fragment: LVGN-Datalog = %v\n", s.Class().LVGN())

	res, err := s.Validate(nil)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Valid {
		log.Fatalf("strategy rejected: %v", res.Failure)
	}
	fmt.Println("strategy is valid; derived view definition:")
	for _, r := range res.Get {
		fmt.Println(" ", r)
	}

	// 2. Install it on the engine with the paper's Example 3.1 instance.
	db := birds.NewDB()
	decls, err := birds.Parse("source r1(a:int).\nsource r2(a:int).\nview v(a:int).")
	if err != nil {
		log.Fatal(err)
	}
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
	if _, err := db.CreateView(strategy, birds.ViewOptions{Incremental: true}); err != nil {
		log.Fatal(err)
	}

	show := func(label string) {
		names := []string{"r1", "r2", "v"}
		rels, err := db.GetAll(names...)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range names {
			fmt.Printf("  %s = %s\n", n, rels[n])
		}
		fmt.Println(" ", label)
	}
	fmt.Println("initial state:")
	show("")

	// 3. Update the view: V becomes {1, 3, 4} (insert 3, delete 2). The
	// strategy propagates: +r1(3), -r2(2), exactly as in the paper.
	if err := db.Exec(birds.Insert("v", birds.Int(3))); err != nil {
		log.Fatal(err)
	}
	if err := db.Exec(birds.Delete("v", birds.Eq("a", birds.Int(2)))); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after inserting 3 and deleting 2 through the view:")
	show("(r1 gained 3; r2 lost 2)")

	// 4. The compiled SQL artifact for running the same strategy on
	// PostgreSQL.
	sql, err := s.CompileSQL(res.Get)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled SQL program: %d bytes (CREATE VIEW + INSTEAD OF trigger)\n", len(sql))
}
