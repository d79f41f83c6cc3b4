// Catalog: a left-join view (Table 1 row 29, "products") — each product
// joined with its category name, or the sentinel 'none' when it has no
// category. Join views are outside LVGN-Datalog (the key constraints are
// not negation guarded), but the strategy is still validated by the
// bounded-oracle path and runs on the engine; updating through the view
// rewires the product→category foreign keys.
package main

import (
	"fmt"
	"log"

	"birds"
)

const productsStrategy = `
source prod(pid:int, pname:string, cid:int).
source cats(cid:int, cname:string).
view products(pid:int, pname:string, cname:string).

% Key and inclusion preconditions on the stored data.
_|_ :- cats(I,C1), cats(I,C2), not C1 = C2.
_|_ :- cats(I1,C), cats(I2,C), not I1 = I2.
_|_ :- prod(P,N1,I1), prod(P,N2,I2), not N1 = N2.
_|_ :- prod(P,N1,I1), prod(P,N2,I2), not I1 = I2.
_|_ :- prod(P,N,I), not I = -1, not cats(I,_).
_|_ :- cats(I,C), I = -1.
_|_ :- cats(I,C), C = 'none'.

% View constraints: one row per product; category names must exist.
_|_ :- products(P,N1,C1), products(P,N2,C2), not N1 = N2.
_|_ :- products(P,N1,C1), products(P,N2,C2), not C1 = C2.
_|_ :- products(P,N,C), not C = 'none', not catname(C).
catname(C) :- cats(_,C).

+prod(P,N,I) :- products(P,N,C), C = 'none', I = -1, not prod(P,N,I).
+prod(P,N,I) :- products(P,N,C), cats(I,C), not prod(P,N,I).
-prod(P,N,I) :- prod(P,N,I), cats(I,C), not products(P,N,C).
-prod(P,N,I) :- prod(P,N,I), I = -1, not products(P,N,'none').
`

const expectedGet = `
products(P,N,C) :- prod(P,N,I), cats(I,C).
products(P,N,'none') :- prod(P,N,I), I = -1.
`

func main() {
	s, err := birds.Load(productsStrategy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fragment: LVGN = %v (join views are outside LVGN), NR-Datalog = %v\n",
		s.Class().LVGN(), s.Class().NRDatalog())

	expected, err := birds.ParseRules(expectedGet)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Validate(expected)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Valid {
		log.Fatalf("strategy rejected: %v", res.Failure)
	}
	fmt.Printf("validated in %.2fs; expected get confirmed = %v\n", res.Elapsed.Seconds(), res.UsedExpected)

	db := birds.NewDB()
	decls, err := birds.Parse("source prod(pid:int, pname:string, cid:int).\nsource cats(cid:int, cname:string).\nview x(a:int).")
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range decls.Sources {
		if err := db.CreateTable(d); err != nil {
			log.Fatal(err)
		}
	}
	must(db.LoadTable("cats", []birds.Tuple{
		{birds.Int(1), birds.Str("tools")},
		{birds.Int(2), birds.Str("toys")},
	}))
	must(db.LoadTable("prod", []birds.Tuple{
		{birds.Int(10), birds.Str("hammer"), birds.Int(1)},
		{birds.Int(11), birds.Str("kite"), birds.Int(2)},
		{birds.Int(12), birds.Str("widget"), birds.Int(-1)}, // uncategorized
	}))
	if _, err := db.CreateView(productsStrategy, birds.ViewOptions{
		SkipValidation: true, // validated above
		ExpectedGet:    expected,
	}); err != nil {
		log.Fatal(err)
	}

	show := func() {
		names := []string{"prod", "cats", "products"}
		rels, err := db.GetAll(names...)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range names {
			fmt.Printf("  %-9s = %s\n", n, rels[n])
		}
	}
	fmt.Println("\ninitial state:")
	show()

	// Recategorize the kite through the view: the strategy rewires the
	// foreign key to the tools category.
	fmt.Println("\nUPDATE products SET cname = 'tools' WHERE pid = 11")
	must(db.Exec(birds.Update("products",
		[]birds.Assignment{{Col: "cname", Val: birds.Str("tools")}},
		birds.Eq("pid", birds.Int(11)))))
	show()

	// Give the widget a category; then take the hammer's away.
	fmt.Println("\nUPDATE products SET cname = 'toys' WHERE pid = 12")
	must(db.Exec(birds.Update("products",
		[]birds.Assignment{{Col: "cname", Val: birds.Str("toys")}},
		birds.Eq("pid", birds.Int(12)))))
	fmt.Println("UPDATE products SET cname = 'none' WHERE pid = 10")
	must(db.Exec(birds.Update("products",
		[]birds.Assignment{{Col: "cname", Val: birds.Str("none")}},
		birds.Eq("pid", birds.Int(10)))))
	show()

	// An unknown category name is rejected by the view constraint.
	fmt.Println("\nINSERT INTO products VALUES (13, 'drone', 'gadgets')")
	if err := db.Exec(birds.Insert("products",
		birds.Int(13), birds.Str("drone"), birds.Str("gadgets"))); err != nil {
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
