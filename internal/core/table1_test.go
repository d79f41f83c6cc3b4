package core_test

import (
	"testing"

	"birds/internal/bench"
	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/sat"
)

// TestValidateMatchesSequentialOnTable1 checks that the concurrent Validate
// returns exactly the Result of running the checks one after another, on
// every expressible Table 1 program with its expected get.
func TestValidateMatchesSequentialOnTable1(t *testing.T) {
	opts := core.Options{Oracle: sat.Config{
		MaxTuples:        3,
		RandomTrials:     800,
		ExhaustiveBudget: 30000,
		GuideBudget:      30000,
		Seed:             1,
	}}
	for _, e := range bench.Table1() {
		if e.Program == "" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			expected, err := bench.ParseGetRules(e.ExpectedGet)
			if err != nil {
				t.Fatal(err)
			}
			pb := func() *core.Putback {
				prog, err := datalog.Parse(e.Program)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := core.NewPutback(prog)
				if err != nil {
					t.Fatal(err)
				}
				return pb
			}
			want, err := core.ValidateSequential(pb(), expected, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Validate(pb(), expected, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := core.DiffResults(got, want); d != "" {
				t.Fatal(d)
			}
		})
	}
}
