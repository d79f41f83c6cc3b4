// Sharding: a single logical relation served by two physical shards — the
// measurement workload of Table 1 (row 19) and a classic use of
// programmable update strategies. The view measurement unifies shards m1
// (ids below 1000) and m2 (ids from 1000); the strategy routes insertions
// to the correct shard by key range, and shard invariants are expressed as
// integrity constraints.
package main

import (
	"fmt"
	"log"

	"birds"
)

const shardStrategy = `
source m1(mid:int, val:int).
source m2(mid:int, val:int).
view measurement(mid:int, val:int).

% Shard invariants (preconditions on the stored data).
_|_ :- m1(I,V), not I < 1000.
_|_ :- m2(I,V), I < 1000.
% Domain constraint on the view: measurements are positive.
_|_ :- measurement(I,V), not V > 0.

% Routing: insertions go to the shard owning the key range.
+m1(I,V) :- measurement(I,V), I < 1000, not m1(I,V).
+m2(I,V) :- measurement(I,V), not I < 1000, not m2(I,V).
-m1(I,V) :- m1(I,V), V > 0, not measurement(I,V).
-m2(I,V) :- m2(I,V), V > 0, not measurement(I,V).
`

func main() {
	// Validate once and show the derived view definition and SQL artifact.
	s, err := birds.Load(shardStrategy)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Validate(nil)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Valid {
		log.Fatalf("strategy rejected: %v", res.Failure)
	}
	fmt.Println("derived view definition:")
	for _, r := range res.Get {
		fmt.Println(" ", r)
	}

	db := birds.NewDB()
	decls, err := birds.Parse("source m1(mid:int, val:int).\nsource m2(mid:int, val:int).\nview x(a:int).")
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range decls.Sources {
		if err := db.CreateTable(d); err != nil {
			log.Fatal(err)
		}
	}
	must(db.LoadTable("m1", []birds.Tuple{
		{birds.Int(17), birds.Int(40)},
		{birds.Int(230), birds.Int(7)},
	}))
	must(db.LoadTable("m2", []birds.Tuple{
		{birds.Int(4096), birds.Int(12)},
	}))
	if _, err := db.CreateView(shardStrategy, birds.ViewOptions{Incremental: true}); err != nil {
		log.Fatal(err)
	}

	show := func() {
		names := []string{"m1", "m2", "measurement"}
		rels, err := db.GetAll(names...)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range names {
			fmt.Printf("  %-12s = %s\n", n, rels[n])
		}
	}
	fmt.Println("\ninitial state:")
	show()

	// One transaction inserting into both shards through the view; the
	// strategy routes each tuple by key range.
	fmt.Println("\nBEGIN; INSERT (500, 99); INSERT (2000, 5); END")
	must(db.Exec(
		birds.Insert("measurement", birds.Int(500), birds.Int(99)),
		birds.Insert("measurement", birds.Int(2000), birds.Int(5)),
	))
	show()

	// Within one transaction, a later delete overrides an earlier insert
	// (Algorithm 2 of the paper): the net effect on id 777 is nothing.
	fmt.Println("\nBEGIN; INSERT (777, 1); DELETE WHERE mid = 777; DELETE WHERE mid = 17; END")
	must(db.Exec(
		birds.Insert("measurement", birds.Int(777), birds.Int(1)),
		birds.Delete("measurement", birds.Eq("mid", birds.Int(777))),
		birds.Delete("measurement", birds.Eq("mid", birds.Int(17))),
	))
	show()

	// A non-positive measurement violates the view's domain constraint.
	fmt.Println("\nINSERT INTO measurement VALUES (3, 0)")
	if err := db.Exec(birds.Insert("measurement", birds.Int(3), birds.Int(0))); err != nil {
		fmt.Println("  rejected as expected:", err)
	} else {
		log.Fatal("constraint violation not caught")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
