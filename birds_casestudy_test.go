package birds_test

import (
	"testing"

	"birds"
)

// The complete Section 3.3 case study through the public API: the base
// tables, the four-view stack, cascading updates, constraint rejections,
// and the derived view definitions. This is the examples/hr walkthrough as
// an asserted test.
func TestCaseStudySection33(t *testing.T) {
	const (
		residentsStrategy = `
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
		cedStrategy = `
source ed(emp_name:string, dept_name:string).
source eed(emp_name:string, dept_name:string).
view ced(emp_name:string, dept_name:string).
+ed(E,D) :- ced(E,D), not ed(E,D).
-eed(E,D) :- ced(E,D), eed(E,D).
+eed(E,D) :- ed(E,D), not ced(E,D), not eed(E,D).
`
		r1962Strategy = `
source residents(emp_name:string, birth_date:date, gender:string).
view residents1962(emp_name:string, birth_date:date, gender:string).
_|_ :- residents1962(E,B,G), B > '1962-12-31'.
_|_ :- residents1962(E,B,G), B < '1962-01-01'.
+residents(E,B,G) :- residents1962(E,B,G), not residents(E,B,G).
-residents(E,B,G) :- residents(E,B,G), not B < '1962-01-01', not B > '1962-12-31', not residents1962(E,B,G).
`
		retiredStrategy = `
source residents(emp_name:string, birth_date:date, gender:string).
source ced(emp_name:string, dept_name:string).
view retired(emp_name:string).
-ced(E,D) :- ced(E,D), retired(E).
+ced(E,D) :- residents(E,_,_), not retired(E), not ced(E,_), D = 'unknown'.
+residents(E,B,G) :- retired(E), G = 'unknown', not residents(E,_,_), B = '00-00-00'.
`
	)
	oracle := birds.OracleConfig{
		MaxTuples: 3, RandomTrials: 600, ExhaustiveBudget: 20000, GuideBudget: 20000, Seed: 1,
	}

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
		t.Fatal(err)
	}
	for _, d := range schema.Sources {
		if err := db.CreateTable(d); err != nil {
			t.Fatal(err)
		}
	}
	row := func(vals ...string) birds.Tuple {
		out := make(birds.Tuple, len(vals))
		for i, v := range vals {
			out[i] = birds.Str(v)
		}
		return out
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.LoadTable("male", []birds.Tuple{row("bob", "1962-03-01"), row("jim", "1950-07-20")}))
	must(db.LoadTable("female", []birds.Tuple{row("ann", "1962-07-15")}))
	must(db.LoadTable("ed", []birds.Tuple{row("bob", "sales"), row("jim", "cs"), row("ann", "cs")}))
	must(db.LoadTable("eed", []birds.Tuple{row("bob", "cs")}))

	for _, src := range []string{residentsStrategy, cedStrategy, r1962Strategy, retiredStrategy} {
		if _, err := db.CreateView(src, birds.ViewOptions{Incremental: true, Oracle: &oracle}); err != nil {
			t.Fatal(err)
		}
	}

	// Derived view definitions exist for every view (Theorem 2.1).
	for _, name := range []string{"residents", "ced", "residents1962", "retired"} {
		v := db.View(name)
		if v == nil || len(v.Get) == 0 {
			t.Fatalf("view %s has no derived get", name)
		}
	}

	// Initial state checks.
	rel := func(name string) *birds.Relation {
		t.Helper()
		r, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if rel("residents").Len() != 3 {
		t.Fatalf("residents = %v", rel("residents"))
	}
	if !rel("ced").Contains(row("bob", "sales")) || rel("ced").Contains(row("bob", "cs")) {
		t.Fatalf("ced = %v (bob's cs department is former)", rel("ced"))
	}
	if rel("residents1962").Len() != 2 {
		t.Fatalf("residents1962 = %v", rel("residents1962"))
	}
	if rel("retired").Len() != 0 {
		t.Fatalf("retired = %v (everyone has a department)", rel("retired"))
	}

	// Insert through the top view: cascades residents1962 → residents →
	// female.
	must(db.Exec(birds.Insert("residents1962", birds.Str("eva"), birds.Str("1962-11-30"), birds.Str("F"))))
	if !rel("female").Contains(row("eva", "1962-11-30")) {
		t.Fatalf("eva must land in female: %v", rel("female"))
	}
	// Eva has no department, so she is now retired.
	if !rel("retired").Contains(row("eva")) {
		t.Fatalf("eva has no current department: %v", rel("retired"))
	}

	// Constraint rejection at the top of the stack.
	if err := db.Exec(birds.Insert("residents1962", birds.Str("tom"), birds.Str("1980-01-01"), birds.Str("M"))); err == nil {
		t.Fatal("1980 birthdate must violate the 1962 constraints")
	}
	if rel("residents").Contains(row("tom", "1980-01-01", "M")) {
		t.Fatal("rejected insert must not leak into residents")
	}

	// Retire bob via the retired view: his ced departments move to eed.
	must(db.Exec(birds.Insert("retired", birds.Str("bob"))))
	if rel("ced").Contains(row("bob", "sales")) {
		t.Fatalf("bob should have no current department: %v", rel("ced"))
	}
	if !rel("eed").Contains(row("bob", "sales")) {
		t.Fatalf("bob's sales dept must become former: %v", rel("eed"))
	}
	if !rel("retired").Contains(row("bob")) {
		t.Fatalf("retired = %v", rel("retired"))
	}

	// Un-retire bob: the strategy assigns an 'unknown' department.
	must(db.Exec(birds.Delete("retired", birds.Eq("emp_name", birds.Str("bob")))))
	if !rel("ced").Contains(row("bob", "unknown")) {
		t.Fatalf("un-retiring must create an unknown department: %v", rel("ced"))
	}

	// Move ann's department through ced: UPDATE cascades to ed/eed.
	must(db.Exec(birds.Update("ced",
		[]birds.Assignment{{Col: "dept_name", Val: birds.Str("hr")}},
		birds.Eq("emp_name", birds.Str("ann")))))
	ced := rel("ced")
	if !ced.Contains(row("ann", "hr")) || ced.Contains(row("ann", "cs")) {
		t.Fatalf("ced after move = %v", ced)
	}
	if !rel("eed").Contains(row("ann", "cs")) {
		t.Fatalf("ann's cs must be former: %v", rel("eed"))
	}
	// ed keeps full history.
	if !rel("ed").Contains(row("ann", "cs")) || !rel("ed").Contains(row("ann", "hr")) {
		t.Fatalf("ed history = %v", rel("ed"))
	}
}
