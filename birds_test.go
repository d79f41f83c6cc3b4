package birds_test

import (
	"strings"
	"testing"

	"birds"
)

const unionSrc = `
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), not v(X).
+r1(X) :- v(X), not r1(X), not r2(X).
`

func fastOpts() birds.Options {
	return birds.Options{Oracle: birds.OracleConfig{
		MaxTuples: 3, RandomTrials: 600, ExhaustiveBudget: 20000, GuideBudget: 20000, Seed: 1,
	}}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	s, err := birds.Load(unionSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Class().LVGN() {
		t.Error("union strategy should be LVGN")
	}
	res, err := s.ValidateWith(nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("should validate: %v", res.Failure)
	}
	dput, err := s.Incrementalize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dput.String(), "+v(") {
		t.Errorf("∂put should reference the view delta:\n%s", dput)
	}
	sql, err := s.CompileSQL(res.Get)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "CREATE OR REPLACE VIEW v") || !strings.Contains(sql, "CREATE TRIGGER") {
		t.Error("compiled SQL incomplete")
	}
	if _, err := s.CompileSQL(nil); err == nil {
		t.Error("CompileSQL without get must fail")
	}
}

func TestPublicAPIEngine(t *testing.T) {
	db := birds.NewDB()
	prog, err := birds.Parse("source r1(a:int).\nsource r2(a:int).\nview v(a:int).")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range prog.Sources {
		if err := db.CreateTable(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.LoadTable("r1", []birds.Tuple{{birds.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	oracle := fastOpts().Oracle
	if _, err := db.CreateView(unionSrc, birds.ViewOptions{Incremental: true, Oracle: &oracle}); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(birds.Insert("v", birds.Int(3))); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(birds.Delete("v", birds.Eq("a", birds.Int(1)))); err != nil {
		t.Fatal(err)
	}
	r1, err := db.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 1 || !r1.Contains(birds.Tuple{birds.Int(3)}) {
		t.Errorf("r1 = %v, want {3}", r1)
	}
}

func TestParseRules(t *testing.T) {
	rules, err := birds.ParseRules("v(X) :- r1(X).\nv(X) :- r2(X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("want 2 rules, got %d", len(rules))
	}
	if _, err := birds.ParseRules("not a rule"); err == nil {
		t.Error("garbage must fail")
	}
	empty, err := birds.ParseRules("  \n ")
	if err != nil || empty != nil {
		t.Error("blank input should yield no rules")
	}
}

func TestLoadRejectsBadPrograms(t *testing.T) {
	if _, err := birds.Load("syntax error("); err == nil {
		t.Error("syntax error must fail")
	}
	if _, err := birds.Load("source r(a:int).\n+r(X) :- r(X)."); err == nil {
		t.Error("missing view must fail")
	}
}

func TestCompileIncrementalSQL(t *testing.T) {
	s, err := birds.Load(unionSrc)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := s.CompileIncrementalSQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "v_update_strategy_inc") || !strings.Contains(sql, "__ins_v") {
		t.Errorf("incremental SQL incomplete:\n%s", sql)
	}
	// A non-linear-view strategy cannot be incrementalized this way.
	join, err := birds.Load(`
source a(x:int).
view j(x:int, y:int).
+a(X) :- j(X,Y), j(Y,X).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := join.CompileIncrementalSQL(); err == nil {
		t.Error("self-join strategy must be rejected")
	}
}
