// HR: the full case study of Section 3.3 of the paper — a stack of
// updatable views over a personnel database:
//
//	male / female / others / ed / eed      (base tables)
//	residents  = male ∪ female ∪ others    (dispatch by gender)
//	ced        = ed \ eed                  (current departments)
//	residents1962 over residents           (selection; view over a view)
//	retired over residents + ced           (semijoin with negation)
//
// Updates on the higher views cascade through the lower views' strategies
// down to the base tables.
package main

import (
	"fmt"
	"log"

	"birds"
)

const residentsStrategy = `
source male(emp_name:string, birth_date:date).
source female(emp_name:string, birth_date:date).
source others(emp_name:string, birth_date:date, gender:string).
view residents(emp_name:string, birth_date:date, gender:string).

+male(E,B) :- residents(E,B,'M'), not male(E,B), not others(E,B,'M').
-male(E,B) :- male(E,B), not residents(E,B,'M').
+female(E,B) :- residents(E,B,G), G = 'F', not female(E,B), not others(E,B,G).
-female(E,B) :- female(E,B), not residents(E,B,'F').
+others(E,B,G) :- residents(E,B,G), not G = 'M', not G = 'F', not others(E,B,G).
-others(E,B,G) :- others(E,B,G), not residents(E,B,G).
`

const cedStrategy = `
source ed(emp_name:string, dept_name:string).
source eed(emp_name:string, dept_name:string).
view ced(emp_name:string, dept_name:string).

+ed(E,D) :- ced(E,D), not ed(E,D).
-eed(E,D) :- ced(E,D), eed(E,D).
+eed(E,D) :- ed(E,D), not ced(E,D), not eed(E,D).
`

const residents1962Strategy = `
source residents(emp_name:string, birth_date:date, gender:string).
view residents1962(emp_name:string, birth_date:date, gender:string).

_|_ :- residents1962(E,B,G), B > '1962-12-31'.
_|_ :- residents1962(E,B,G), B < '1962-01-01'.
+residents(E,B,G) :- residents1962(E,B,G), not residents(E,B,G).
-residents(E,B,G) :- residents(E,B,G), not B < '1962-01-01', not B > '1962-12-31', not residents1962(E,B,G).
`

const retiredStrategy = `
source residents(emp_name:string, birth_date:date, gender:string).
source ced(emp_name:string, dept_name:string).
view retired(emp_name:string).

-ced(E,D) :- ced(E,D), retired(E).
+ced(E,D) :- residents(E,_,_), not retired(E), not ced(E,_), D = 'unknown'.
+residents(E,B,G) :- retired(E), G = 'unknown', not residents(E,_,_), B = '00-00-00'.
`

func main() {
	db := birds.NewDB()
	schema, err := birds.Parse(`
source male(emp_name:string, birth_date:date).
source female(emp_name:string, birth_date:date).
source others(emp_name:string, birth_date:date, gender:string).
source ed(emp_name:string, dept_name:string).
source eed(emp_name:string, dept_name:string).
view unused(x:int).
`)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range schema.Sources {
		if err := db.CreateTable(d); err != nil {
			log.Fatal(err)
		}
	}

	// Seed data.
	must(db.LoadTable("male", rows("bob|1962-03-01", "jim|1950-07-20")))
	must(db.LoadTable("female", rows("ann|1962-07-15")))
	must(db.LoadTable("others", rows("kit|1958-02-02|X")))
	must(db.LoadTable("ed", rows("bob|sales", "jim|cs", "ann|cs")))
	must(db.LoadTable("eed", rows("bob|cs")))

	// Install the view stack. Each CREATE VIEW validates the strategy
	// first (Algorithm 1), then materializes the view.
	for _, v := range []struct{ name, src string }{
		{"residents", residentsStrategy},
		{"ced", cedStrategy},
		{"residents1962", residents1962Strategy},
		{"retired", retiredStrategy},
	} {
		if _, err := db.CreateView(v.src, birds.ViewOptions{Incremental: true}); err != nil {
			log.Fatalf("create view %s: %v", v.name, err)
		}
		fmt.Printf("created updatable view %s\n", v.name)
	}

	show := func(names ...string) {
		rels, err := db.GetAll(names...)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range names {
			fmt.Printf("  %-14s = %s\n", n, rels[n])
		}
	}
	fmt.Println("\ninitial views:")
	show("residents", "ced", "residents1962", "retired")

	// Update through residents1962: a new 1962-born female. The strategy
	// inserts into residents, whose own strategy routes her to the female
	// base table.
	fmt.Println("\nINSERT INTO residents1962 VALUES ('eva', '1962-11-30', 'F')")
	must(db.Exec(birds.Insert("residents1962",
		birds.Str("eva"), birds.Str("1962-11-30"), birds.Str("F"))))
	show("female", "residents", "residents1962")

	// An out-of-range birthdate violates the view's constraints.
	fmt.Println("\nINSERT INTO residents1962 VALUES ('tom', '1980-01-01', 'M')")
	if err := db.Exec(birds.Insert("residents1962",
		birds.Str("tom"), birds.Str("1980-01-01"), birds.Str("M"))); err != nil {
		fmt.Println("  rejected as expected:", err)
	} else {
		log.Fatal("constraint violation not caught")
	}

	// Retire bob through the retired view: his current departments move to
	// eed-free deletion from ced, i.e. -ced cascades into ed/eed updates.
	fmt.Println("\nINSERT INTO retired VALUES ('bob')")
	must(db.Exec(birds.Insert("retired", birds.Str("bob"))))
	show("retired", "ced", "ed", "eed")

	// Update a department through ced: ann moves from cs to hr.
	fmt.Println("\nUPDATE ced SET dept_name = 'hr' WHERE emp_name = 'ann'")
	must(db.Exec(birds.Update("ced",
		[]birds.Assignment{{Col: "dept_name", Val: birds.Str("hr")}},
		birds.Eq("emp_name", birds.Str("ann")))))
	show("ced", "ed", "eed")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// rows parses "a|b|c" specs into string tuples.
func rows(specs ...string) []birds.Tuple {
	var out []birds.Tuple
	for _, s := range specs {
		out = append(out, splitTuple(s))
	}
	return out
}

func splitTuple(s string) birds.Tuple {
	var t birds.Tuple
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '|' {
			t = append(t, birds.Str(s[start:i]))
			start = i + 1
		}
	}
	return t
}
