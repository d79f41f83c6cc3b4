package bench

import (
	"strings"
	"testing"
)

// TestFig6DputExplain pins what two Figure 6 panels' ∂put reads, as the
// engine explains the plans a view write runs against its store.
// luxuryitems' ∂put reads items by direct membership only, so its cost is
// O(|ΔV|). officeinfo's still scans works in full: its delta joins works on
// part of a tuple, and without a maintained index on those positions the
// scan is the cheapest plan, so its cost is O(|DB|).
func TestFig6DputExplain(t *testing.T) {
	for _, c := range []struct {
		view, want, notWant string
	}{
		{"luxuryitems", "semi-join items by direct membership", "scan items"},
		{"officeinfo", "scan works (full)", ""},
	} {
		v, err := Fig6ViewByName(c.view)
		if err != nil {
			t.Fatal(err)
		}
		db, err := SetupFig6(v, 1000, true, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.Explain(c.view)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, c.want) {
			t.Errorf("%s: ∂put plan lacks %q:\n%s", c.view, c.want, plan)
		}
		if c.notWant != "" && strings.Contains(plan, c.notWant) {
			t.Errorf("%s: ∂put plan has %q:\n%s", c.view, c.notWant, plan)
		}
	}
}
