package bench

import (
	"strings"
	"testing"

	"birds/internal/analysis"
	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/sqlgen"
)

// Every expressible benchmark program must survive a print/reparse round
// trip with identical classification.
func TestTable1PrintRoundTrip(t *testing.T) {
	for _, e := range Table1() {
		if e.Program == "" {
			continue
		}
		p1, err := datalog.Parse(e.Program)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		p2, err := datalog.Parse(p1.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", e.Name, err, p1)
		}
		if p1.String() != p2.String() {
			t.Errorf("%s: round trip differs", e.Name)
		}
		c1, c2 := analysis.Classify(p1), analysis.Classify(p2)
		if c1.LVGN() != c2.LVGN() || c1.NRDatalog() != c2.NRDatalog() {
			t.Errorf("%s: classification changed across round trip", e.Name)
		}
	}
}

// Every expressible benchmark strategy compiles to a complete SQL program.
func TestTable1SQLCompilation(t *testing.T) {
	for _, e := range Table1() {
		if e.Program == "" {
			continue
		}
		prog, err := datalog.Parse(e.Program)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		get, err := ParseGetRules(e.ExpectedGet)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		sqlText, err := sqlgen.New(prog).Compile(get)
		if err != nil {
			t.Fatalf("%s: compile: %v", e.Name, err)
		}
		for _, want := range []string{
			"CREATE OR REPLACE VIEW " + prog.View.Name,
			"CREATE OR REPLACE FUNCTION " + prog.View.Name + "_update_strategy",
			"INSTEAD OF INSERT OR UPDATE OR DELETE ON " + prog.View.Name,
		} {
			if !strings.Contains(sqlText, want) {
				t.Errorf("%s: SQL missing %q", e.Name, want)
			}
		}
		if len(prog.Constraints()) > 0 && !strings.Contains(sqlText, "RAISE EXCEPTION") {
			t.Errorf("%s: constraints not compiled into the trigger", e.Name)
		}
	}
}

// LVGN entries must incrementalize via Lemma 5.2; non-LVGN entries must be
// rejected by the LVGN path but handled by the general Appendix C pipeline.
func TestTable1Incrementalization(t *testing.T) {
	for _, e := range Table1() {
		if e.Program == "" {
			continue
		}
		prog, err := datalog.Parse(e.Program)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		inc, lvgnErr := core.Incrementalize(prog)
		if e.WantLVGN {
			if lvgnErr != nil {
				t.Errorf("%s: LVGN entry must incrementalize: %v", e.Name, lvgnErr)
				continue
			}
			// ∂put must reference the view deltas rather than the view.
			text := inc.String()
			if !strings.Contains(text, "+"+prog.View.Name+"(") &&
				!strings.Contains(text, "-"+prog.View.Name+"(") {
				t.Errorf("%s: ∂put references no view delta:\n%s", e.Name, text)
			}
		}
		if _, err := core.NewGeneralIncremental(prog); err != nil {
			t.Errorf("%s: general incrementalization failed: %v", e.Name, err)
		}
	}
}

// The classification of each benchmark program is stable and matches the
// paper's column (quick sanity independent of the full validation test).
func TestTable1Classification(t *testing.T) {
	for _, e := range Table1() {
		if e.Program == "" {
			continue
		}
		prog, err := datalog.Parse(e.Program)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		c := analysis.Classify(prog)
		if c.LVGN() != e.WantLVGN {
			t.Errorf("%s: LVGN = %v, paper says %v (%v)", e.Name, c.LVGN(), e.WantLVGN, c.Violations)
		}
		if !c.NRDatalog() {
			t.Errorf("%s: should be NR-Datalog: %v", e.Name, c.Violations)
		}
		if err := analysis.CheckPutbackShape(prog); err != nil {
			t.Errorf("%s: bad shape: %v", e.Name, err)
		}
	}
}
