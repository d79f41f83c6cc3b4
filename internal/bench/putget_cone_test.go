package bench

import (
	"math/rand"
	"strings"
	"testing"

	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// TestPutGetConeMatchesComposition is the differential check behind the
// validator's PutGet pass: for every Table 1 program with its expected get,
// on seeded random instances over the sources and the view, the putback
// program's evaluation followed by core.PutGetCone must yield the same
// new_<view> and new_<source> relations as the whole core.ComposePutGet
// program, and the cone must define only new_* relations, so that it
// derives no part of ΔS again. As in the oracle, the cone side reuses one
// database across instances, refilling only its sources and view, so ±r
// relations a previous instance derived are still present when the
// putback program runs again.
func TestPutGetConeMatchesComposition(t *testing.T) {
	const trials = 200
	for _, e := range Table1() {
		if e.Program == "" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			prog, err := datalog.Parse(e.Program)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := core.NewPutback(prog)
			if err != nil {
				t.Fatal(err)
			}
			get, err := ParseGetRules(e.ExpectedGet)
			if err != nil || get == nil {
				t.Fatalf("expected get %q: %v", e.ExpectedGet, err)
			}
			putget, err := core.ComposePutGet(prog, get)
			if err != nil {
				t.Fatal(err)
			}
			cone, err := core.PutGetCone(prog, get)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range cone.Rules {
				if r.Head.Pred.IsDelta() || !strings.HasPrefix(r.Head.Pred.Name, "new_") {
					t.Fatalf("cone rule %v defines no new_* relation", r)
				}
			}
			fullEv, err := eval.New(putget)
			if err != nil {
				t.Fatal(err)
			}
			coneEv, err := eval.New(cone)
			if err != nil {
				t.Fatal(err)
			}

			decls := append(append([]*datalog.RelDecl{}, prog.Sources...), prog.View)
			compared := []datalog.PredSym{core.NewViewSym(prog.View.Name)}
			for _, s := range prog.Sources {
				compared = append(compared, core.NewSourceSym(s.Name))
			}
			ints, strs := constantPools(append(append([]*datalog.Rule{}, prog.Rules...), get...))
			rng := rand.New(rand.NewSource(int64(e.ID)))
			split := eval.NewDatabase()
			for trial := 0; trial < trials; trial++ {
				full := eval.NewDatabase()
				for _, d := range decls {
					rel := value.NewRelation(d.Arity())
					for n := rng.Intn(4); n > 0; n-- {
						tup := make(value.Tuple, d.Arity())
						for i, a := range d.Attrs {
							pool := ints
							if a.Type == "string" {
								pool = strs
							}
							tup[i] = pool[rng.Intn(len(pool))]
						}
						rel.Add(tup)
					}
					full.Set(datalog.Pred(d.Name), rel.Clone())
					split.Update(datalog.Pred(d.Name), rel)
				}
				if err := fullEv.Eval(full); err != nil {
					t.Fatal(err)
				}
				if err := pb.Evaluator().Eval(split); err != nil {
					t.Fatal(err)
				}
				if err := coneEv.Eval(split); err != nil {
					t.Fatal(err)
				}
				for _, sym := range compared {
					want, got := full.RelOrEmpty(sym, 0), split.RelOrEmpty(sym, 0)
					if !got.Equal(want) {
						t.Fatalf("trial %d: %s: cone gives %v, putget program gives %v\ninstance:\n%v",
							trial, sym, got, want, full)
					}
				}
			}
		})
	}
}

// constantPools returns the value pools a random instance draws from: the
// rules' int and string constants, each int's neighbours (so comparisons
// go both ways), and two defaults of each type.
func constantPools(rules []*datalog.Rule) (ints, strs []value.Value) {
	seen := make(map[string]bool)
	add := func(v value.Value) {
		if seen[v.String()] {
			return
		}
		seen[v.String()] = true
		if v.Kind() == value.KindString {
			strs = append(strs, v)
		} else {
			ints = append(ints, v)
		}
	}
	for _, v := range []value.Value{value.Int(0), value.Int(1), value.Str("a"), value.Str("b")} {
		add(v)
	}
	term := func(t datalog.Term) {
		if !t.IsConst() {
			return
		}
		switch t.Const.Kind() {
		case value.KindInt:
			n := t.Const.AsInt()
			add(value.Int(n - 1))
			add(value.Int(n))
			add(value.Int(n + 1))
		case value.KindString:
			add(t.Const)
		}
	}
	for _, r := range rules {
		if r.Head != nil {
			for _, a := range r.Head.Args {
				term(a)
			}
		}
		for _, l := range r.Body {
			if l.Atom != nil {
				for _, a := range l.Atom.Args {
					term(a)
				}
			} else {
				term(l.Builtin.L)
				term(l.Builtin.R)
			}
		}
	}
	return ints, strs
}
