package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/sat"
	"birds/internal/value"
)

// ValidateSequential runs Algorithm 1's checks one after another on the
// calling goroutine, in the algorithm's order: well-definedness, GetPut
// over the expected get, derivation when there is none or it fails, and
// PutGet. It is the reference the concurrent Validate must agree with.
func ValidateSequential(pb *Putback, expectedGet []*datalog.Rule, opts Options) (*Result, error) {
	res := &Result{Class: pb.Class, Bounded: true}
	v := newValidator(pb, sat.New(opts.Oracle))
	ctx := context.Background()
	fail := func(f *Failure) (*Result, error) {
		res.Failure = f
		return res, nil
	}

	if f := v.checkWellDefined(); f != nil {
		return fail(f)
	}
	var expectedFailure *Failure
	if expectedGet != nil {
		f, err := v.checkGetPut(ctx, expectedGet)
		if err != nil {
			return nil, err
		}
		if f == nil {
			res.Get = expectedGet
			res.UsedExpected = true
		} else {
			expectedFailure = f
		}
	}
	if res.Get == nil {
		get, decomp, f := v.deriveGet()
		if f != nil {
			if expectedFailure != nil {
				expectedFailure.Detail = fmt.Sprintf(
					"expected get does not satisfy GetPut (%s); derivation also failed: %s",
					expectedFailure.Detail, f.Detail)
				return fail(expectedFailure)
			}
			return fail(f)
		}
		res.Get = get
		res.Decomp = decomp
		f, err := v.checkGetPut(ctx, get)
		if err != nil {
			return nil, err
		}
		if f != nil {
			f.Detail = "derived get does not satisfy GetPut: " + f.Detail
			return fail(f)
		}
	}
	f, err := v.checkPutGet(ctx, res.Get)
	if err != nil {
		return nil, err
	}
	if f != nil {
		return fail(f)
	}
	res.Valid = true
	return res, nil
}

// DiffResults describes the first field in which two validation results
// differ, Elapsed aside; it returns "" when they agree. Witnesses compare
// by their rendering, which lists every relation of the instance.
func DiffResults(got, want *Result) string {
	switch {
	case got.Valid != want.Valid:
		return fmt.Sprintf("Valid %v, want %v", got.Valid, want.Valid)
	case got.UsedExpected != want.UsedExpected:
		return fmt.Sprintf("UsedExpected %v, want %v", got.UsedExpected, want.UsedExpected)
	case got.Bounded != want.Bounded:
		return fmt.Sprintf("Bounded %v, want %v", got.Bounded, want.Bounded)
	case !reflect.DeepEqual(got.Class, want.Class):
		return fmt.Sprintf("Class %+v, want %+v", got.Class, want.Class)
	case !reflect.DeepEqual(got.Get, want.Get):
		return fmt.Sprintf("Get %v, want %v", got.Get, want.Get)
	case !reflect.DeepEqual(got.Decomp, want.Decomp):
		return fmt.Sprintf("Decomp %+v, want %+v", got.Decomp, want.Decomp)
	case (got.Failure == nil) != (want.Failure == nil):
		return fmt.Sprintf("Failure %v, want %v", got.Failure, want.Failure)
	case got.Failure == nil:
		return ""
	case got.Failure.Pass != want.Failure.Pass || got.Failure.Detail != want.Failure.Detail:
		return fmt.Sprintf("Failure %q: %q, want %q: %q",
			got.Failure.Pass, got.Failure.Detail, want.Failure.Pass, want.Failure.Detail)
	case (got.Failure.Witness == nil) != (want.Failure.Witness == nil):
		return fmt.Sprintf("witness %v, want %v", got.Failure.Witness, want.Failure.Witness)
	case got.Failure.Witness != nil && got.Failure.Witness.String() != want.Failure.Witness.String():
		return fmt.Sprintf("witness\n%s\nwant\n%s", got.Failure.Witness, want.Failure.Witness)
	}
	return ""
}

// speculationCases are the programs on which Validate discards a
// speculative search: a well-definedness rejection with an expected get
// (both other searches are cancelled), an expected get that fails GetPut
// and is replaced by a derived one (the speculative PutGet is cancelled),
// and one whose derivation fails too (the GetPut counterexample is
// reported).
var speculationCases = []outcomeCase{
	{name: "ill-defined-with-expected-get", src: illDefinedSrc, expected: []string{"v(X) :- r(X)."}},
	{name: "expected-get-wrong-falls-back", src: unionSrc, expected: []string{"v(X) :- r1(X), r2(X)."}},
	{name: "expected-get-wrong-no-steady-state", src: `
source r1(a:int).
source r2(a:int).
view v(a:int).
-r1(X) :- r1(X), not v(X).
-r2(X) :- r2(X), v(X).
`, expected: []string{"v(X) :- r1(X)."}},
}

// TestValidateMatchesSequential checks that the concurrent Validate returns
// exactly the Result of running the checks one after another, on every
// program TestValidateOutcomes pins and on each way of discarding a
// speculative search.
func TestValidateMatchesSequential(t *testing.T) {
	for _, tc := range append(append([]outcomeCase{}, outcomeCases...), speculationCases...) {
		t.Run(tc.name, func(t *testing.T) {
			var expected []*datalog.Rule
			if tc.expected != nil {
				expected = mustRules(t, tc.expected...)
			}
			want, err := ValidateSequential(mustPutback(t, tc.src), expected, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Validate(mustPutback(t, tc.src), expected, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			if d := DiffResults(got, want); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// TestConcurrentValidateOnOnePutback runs two Validate calls on one Putback
// at once, with and without an expected get: no search shares an
// evaluator with another, so under -race this reports no data race, and
// both calls agree with a sequential run.
func TestConcurrentValidateOnOnePutback(t *testing.T) {
	pb := mustPutback(t, unionSrc)
	for _, get := range [][]string{{"v(X) :- r1(X).", "v(X) :- r2(X)."}, nil} {
		var expected []*datalog.Rule
		if get != nil {
			expected = mustRules(t, get...)
		}
		want, err := ValidateSequential(pb, expected, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([]*Result, 2)
		errs := make([]error, 2)
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = Validate(pb, expected, testOptions())
			}()
		}
		wg.Wait()
		for i, res := range results {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if d := DiffResults(res, want); d != "" {
				t.Errorf("call %d: %s", i, d)
			}
		}
	}
}

// TestValidateLeavesNoGoroutines checks that Validate waits for every
// search it spawned before it returns: after a well-definedness rejection
// (both speculative searches cancelled), a fallback to derivation (the
// speculative PutGet cancelled, a second one started over the derived
// get), a derived get failing PutGet, and a valid program with and
// without an expected get. Each spawned search has finished the moment
// validate returns, with no grace period; a cleanup that only cancelled
// the searches would return while cancelled ones are still running. The
// goroutine count then returns to its baseline.
func TestValidateLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	runs := []outcomeCase{
		speculationCases[0],
		speculationCases[1],
		outcomeCases[slices.IndexFunc(outcomeCases, func(c outcomeCase) bool { return c.name == "putget-violation" })],
		{name: "valid", src: unionSrc, expected: []string{"v(X) :- r1(X).", "v(X) :- r2(X)."}},
		{name: "valid-derived", src: unionSrc},
	}
	for _, tc := range runs {
		var expected []*datalog.Rule
		if tc.expected != nil {
			expected = mustRules(t, tc.expected...)
		}
		v := newValidator(mustPutback(t, tc.src), sat.New(testOptions().Oracle))
		if _, err := v.validate(expected); err != nil {
			t.Fatal(err)
		}
		if len(v.searches) == 0 {
			t.Fatalf("%s: validate spawned no search", tc.name)
		}
		for i, s := range v.searches {
			select {
			case <-s.done:
			default:
				t.Fatalf("%s: search %d of %d still running after validate returned", tc.name, i+1, len(v.searches))
			}
		}
		// A search goroutine signals completion just before it exits, so
		// allow it a moment to finish exiting.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after Validate returned, %d before", tc.name, n, base)
		}
	}
}

// TestSearchWaitReraisesPanic checks that a check's panic on its own
// goroutine is re-raised, with its value, by wait on the caller's.
func TestSearchWaitReraisesPanic(t *testing.T) {
	s := (&validator{}).spawn(context.Background(), func(context.Context) (*Failure, error) {
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the search's panic value", r)
		}
	}()
	s.wait()
	t.Fatal("wait returned normally after the search panicked")
}

// TestUpdatedSourceMatchesConeRules checks updatedSource, which builds
// each new_ri for the PutGet check, against the PutGetCone's
// updated-source rules on random instances, after the putback program
// derived ΔS; and that new_ri does not change when the instance's ri
// changes afterwards, as the oracle's next candidate changes it.
func TestUpdatedSourceMatchesConeRules(t *testing.T) {
	for _, src := range []string{unionSrc, selectionSrc} {
		pb := mustPutback(t, src)
		pbEv, err := eval.New(pb.Prog)
		if err != nil {
			t.Fatal(err)
		}
		coneEv, err := eval.New(coneOf(pb.Prog, nil))
		if err != nil {
			t.Fatal(err)
		}
		decls := append(append([]*datalog.RelDecl{}, pb.Prog.Sources...), pb.Prog.View)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 100; trial++ {
			db := eval.NewDatabase()
			for _, d := range decls {
				rel := value.NewRelation(d.Arity())
				for n := rng.Intn(4); n > 0; n-- {
					tup := make(value.Tuple, d.Arity())
					for i := range tup {
						tup[i] = value.Int(int64(rng.Intn(5)))
					}
					rel.Add(tup)
				}
				db.Set(datalog.Pred(d.Name), rel)
			}
			if err := pbEv.Eval(db); err != nil {
				t.Fatal(err)
			}
			if err := coneEv.Eval(db); err != nil {
				t.Fatal(err)
			}
			for _, s := range pb.Prog.Sources {
				got := updatedSource(db, s)
				want := db.RelOrEmpty(NewSourceSym(s.Name), s.Arity())
				if !got.Equal(want) {
					t.Fatalf("%s: new_%s = %v, want %v\n%s", src, s.Name, got, want, db)
				}
				extra := make(value.Tuple, s.Arity())
				for i := range extra {
					extra[i] = value.Int(99)
				}
				db.Insert(datalog.Pred(s.Name), extra)
				if !got.Equal(want) {
					t.Fatalf("%s: new_%s changed with %s: %v", src, s.Name, s.Name, got)
				}
			}
		}
	}
}
