package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"birds/internal/analysis"
	"birds/internal/datalog"
	"birds/internal/value"
)

// This file differential-tests the compiled evaluator against a tiny,
// obviously-correct reference implementation: naive bottom-up evaluation by
// enumerating every total assignment of the rule variables over the active
// domain. No indexes, no join ordering — just the textbook semantics.

// refEval evaluates the program naively and returns the database extended
// with the IDB relations.
func refEval(t *testing.T, prog *datalog.Program, db *Database) *Database {
	t.Helper()
	order, err := analysis.Stratify(prog)
	if err != nil {
		t.Fatal(err)
	}
	out := db.Clone()

	// Active domain: every value in the database plus program constants.
	seen := make(map[string]bool)
	var domain []value.Value
	addVal := func(v value.Value) {
		k := value.Tuple{v}.Key()
		if !seen[k] {
			seen[k] = true
			domain = append(domain, v)
		}
	}
	for _, p := range db.Preds() {
		db.Rel(p).Each(func(tu value.Tuple) {
			for _, v := range tu {
				addVal(v)
			}
		})
	}
	for _, r := range prog.Rules {
		if r.Head != nil {
			for _, tm := range r.Head.Args {
				if tm.IsConst() {
					addVal(tm.Const)
				}
			}
		}
		for _, l := range r.Body {
			if l.Atom != nil {
				for _, tm := range l.Atom.Args {
					if tm.IsConst() {
						addVal(tm.Const)
					}
				}
			} else {
				if l.Builtin.L.IsConst() {
					addVal(l.Builtin.L.Const)
				}
				if l.Builtin.R.IsConst() {
					addVal(l.Builtin.R.Const)
				}
			}
		}
	}

	holds := func(env map[string]value.Value, l datalog.Literal) bool {
		resolve := func(tm datalog.Term) (value.Value, bool) {
			switch tm.Kind {
			case datalog.TermConst:
				return tm.Const, true
			case datalog.TermVar:
				v, ok := env[tm.Var]
				return v, ok
			default:
				return value.Value{}, false // anonymous: handled per-atom
			}
		}
		if l.Builtin != nil {
			lv, _ := resolve(l.Builtin.L)
			rv, _ := resolve(l.Builtin.R)
			res := l.Builtin.Op.Eval(lv, rv)
			if l.Neg {
				return !res
			}
			return res
		}
		rel := out.Rel(l.Atom.Pred)
		match := false
		if rel != nil {
			rel.Each(func(tu value.Tuple) {
				if match {
					return
				}
				ok := true
				for i, tm := range l.Atom.Args {
					if tm.IsAnon() {
						continue
					}
					v, bound := resolve(tm)
					if !bound || !v.Equal(tu[i]) {
						ok = false
						break
					}
				}
				if ok {
					match = true
				}
			})
		}
		if l.Neg {
			return !match
		}
		return match
	}

	for _, sym := range order {
		rules := prog.RulesFor(sym)
		rel := value.NewRelation(rules[0].Head.Arity())
		for _, r := range rules {
			vars := r.Vars()
			env := make(map[string]value.Value)
			var enumerate func(i int)
			enumerate = func(i int) {
				if i == len(vars) {
					for _, l := range r.Body {
						if !holds(env, l) {
							return
						}
					}
					tu := make(value.Tuple, len(r.Head.Args))
					for j, tm := range r.Head.Args {
						if tm.IsConst() {
							tu[j] = tm.Const
						} else {
							tu[j] = env[tm.Var]
						}
					}
					rel.Add(tu)
					return
				}
				for _, v := range domain {
					env[vars[i]] = v
					enumerate(i + 1)
				}
				delete(env, vars[i])
			}
			enumerate(0)
		}
		out.Set(sym, rel)
	}
	return out
}

// randomProgramCorpus is a set of hand-shaped programs covering the
// evaluator's features: joins, negation, anonymous variables, constants,
// comparisons, equality binding, repeated variables, multi-rule unions,
// stratified aux chains.
var referenceCorpus = []string{
	`
source r(a:int).
source s(a:int).
view v(a:int).
u(X) :- r(X).
u(X) :- s(X).
d(X) :- r(X), not s(X).
`,
	`
source r(a:int, b:int).
source s(b:int, c:int).
view v(a:int).
j(X,Z) :- r(X,Y), s(Y,Z).
k(X) :- r(X,X).
l(X) :- r(X,_), not s(X,_).
`,
	`
source r(a:int, b:int).
view v(a:int, b:int).
m(X,Y) :- r(X,Y), Y > 1.
-r(X,Y) :- m(X,Y), not v(X,Y).
+r(X,Y) :- v(X,Y), not r(X,Y), X <= 2.
`,
	`
source r(a:int, b:int).
view v(a:int).
c1(X,Y) :- r(X,Y), Y = 2.
c2(X,Y) :- r(X,Y), not Y = 2.
c3(X,2) :- r(X,_).
c4(X,Y) :- r(X,Z), Y = Z.
`,
	`
source p(a:int).
source q(a:int).
view v(a:int).
a1(X) :- p(X), not q(X).
a2(X) :- q(X), not a1(X).
a3(X) :- a2(X), p(X).
a4(X) :- a3(X), X < 3, X >= 0, X <> 1.
`,
}

// TestCompiledEvaluatorMatchesReference runs the hand-shaped corpus (joins,
// negation, constants, comparisons, equality binding, unions) through Eval
// against the reference, on random EDBs.
func TestCompiledEvaluatorMatchesReference(t *testing.T) {
	checkCorpusMatchesReference(t, 99, 40)
}

// TestStreamingCorpusModesMatch is the corpus comparison on a second seed.
func TestStreamingCorpusModesMatch(t *testing.T) {
	checkCorpusMatchesReference(t, 55, 10)
}

// checkCorpusMatchesReference evaluates every referenceCorpus program on
// trials random EDBs drawn from seed and asserts Eval agrees with refEval.
func checkCorpusMatchesReference(t *testing.T, seed int64, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for pi, src := range referenceCorpus {
		prog := mustProg(t, src)
		ev, err := New(prog)
		if err != nil {
			t.Fatalf("program %d: %v", pi, err)
		}
		// Determine EDB relations and arities from declarations and use.
		edb := map[string]int{}
		for _, s := range prog.Sources {
			edb[s.Name] = s.Arity()
		}
		edb[prog.View.Name] = prog.View.Arity()

		for trial := 0; trial < trials; trial++ {
			db := NewDatabase()
			for name, arity := range edb {
				rel := value.NewRelation(arity)
				for i := 0; i < rng.Intn(6); i++ {
					tu := make(value.Tuple, arity)
					for j := range tu {
						tu[j] = value.Int(int64(rng.Intn(4)))
					}
					rel.Add(tu)
				}
				db.Set(datalog.Pred(name), rel)
			}
			want := refEval(t, prog, db)
			got := db.Clone()
			if err := ev.Eval(got); err != nil {
				t.Fatal(err)
			}
			assertSameIDB(t, prog, got, want, fmt.Sprintf("seed %d program %d trial %d\ninput:\n%s", seed, pi, trial, db))
		}
	}
}

// assertSameIDB fails unless a and b hold identical relations for every IDB
// predicate of prog.
func assertSameIDB(t *testing.T, prog *datalog.Program, a, b *Database, label string) {
	t.Helper()
	for sym := range prog.IDBPreds() {
		ra, rb := a.Rel(sym), b.Rel(sym)
		if (ra == nil) != (rb == nil) || (ra != nil && !ra.Equal(rb)) {
			t.Fatalf("%s: relation %s differs\na=%v\nb=%v", label, sym, ra, rb)
		}
	}
}

// --- random program generation -----------------------------------------

// genCtx carries the state of one random program build.
type genCtx struct {
	rng   *rand.Rand
	preds []genPred // sources then generated IDB predicates
}

type genPred struct {
	name  string
	arity int
}

var genVarPool = []string{"X", "Y", "Z", "W"}

func (g *genCtx) constant() string { return fmt.Sprint(g.rng.Intn(4)) }

// genRule emits one safe rule text for head. Safety is by construction:
// every head, negation, and comparison variable is bound by a positive atom
// or a positive equality with a constant.
func (g *genCtx) genRule(head genPred, avail []genPred) string {
	bound := []string{}
	isBound := func(v string) bool {
		for _, b := range bound {
			if b == v {
				return true
			}
		}
		return false
	}
	var body []string

	// 1-2 positive atoms over the available predicates.
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		p := avail[g.rng.Intn(len(avail))]
		args := make([]string, p.arity)
		for i := range args {
			if g.rng.Intn(10) < 7 {
				v := genVarPool[g.rng.Intn(len(genVarPool))]
				args[i] = v
				if !isBound(v) {
					bound = append(bound, v)
				}
			} else {
				args[i] = g.constant()
			}
		}
		body = append(body, p.name+"("+strings.Join(args, ",")+")")
	}

	// Maybe an equality binding a fresh variable to a constant.
	if g.rng.Intn(10) < 3 {
		for _, v := range genVarPool {
			if !isBound(v) {
				body = append(body, v+" = "+g.constant())
				bound = append(bound, v)
				break
			}
		}
	}
	// boundOrConst picks a bound variable, falling back to a constant for
	// the (all-constant-atoms) case where nothing is bound.
	boundOrConst := func() string {
		if len(bound) == 0 {
			return g.constant()
		}
		return bound[g.rng.Intn(len(bound))]
	}
	// Maybe a comparison over a bound variable.
	if len(bound) > 0 && g.rng.Intn(10) < 4 {
		ops := []string{"<", "<=", ">", ">=", "<>"}
		v := bound[g.rng.Intn(len(bound))]
		body = append(body, v+" "+ops[g.rng.Intn(len(ops))]+" "+g.constant())
	}
	// Maybe a fully bound positive atom: bound variables (one of them
	// possibly repeated) and constants only, which a plan that reaches it
	// with every variable bound tests by membership.
	if len(bound) > 0 && g.rng.Intn(10) < 4 {
		p := avail[g.rng.Intn(len(avail))]
		rep := bound[g.rng.Intn(len(bound))]
		args := make([]string, p.arity)
		for i := range args {
			switch r := g.rng.Intn(10); {
			case r < 4:
				args[i] = rep
			case r < 8:
				args[i] = bound[g.rng.Intn(len(bound))]
			default:
				args[i] = g.constant()
			}
		}
		body = append(body, p.name+"("+strings.Join(args, ",")+")")
	}
	// Maybe a negated atom (vars bound, anonymous columns allowed).
	if g.rng.Intn(10) < 4 {
		p := avail[g.rng.Intn(len(avail))]
		args := make([]string, p.arity)
		for i := range args {
			switch r := g.rng.Intn(10); {
			case r < 6:
				args[i] = boundOrConst()
			case r < 8:
				args[i] = g.constant()
			default:
				args[i] = "_"
			}
		}
		body = append(body, "not "+p.name+"("+strings.Join(args, ",")+")")
	}

	headArgs := make([]string, head.arity)
	for i := range headArgs {
		if g.rng.Intn(4) < 3 {
			headArgs[i] = boundOrConst()
		} else {
			headArgs[i] = g.constant()
		}
	}
	return head.name + "(" + strings.Join(headArgs, ",") + ") :- " + strings.Join(body, ", ") + "."
}

// genProgram builds a random well-formed nonrecursive program: three int
// sources of arity 1-3 and a layered chain of IDB predicates whose rules
// only reference sources and earlier layers.
func genProgram(rng *rand.Rand) string {
	g := &genCtx{rng: rng, preds: []genPred{{"r0", 1}, {"r1", 2}, {"r2", 3}}}
	var b strings.Builder
	b.WriteString("source r0(a:int).\nsource r1(a:int, b:int).\nsource r2(a:int, b:int, c:int).\nview v(a:int).\n")
	nIDB := 2 + rng.Intn(4)
	for i := 0; i < nIDB; i++ {
		head := genPred{name: fmt.Sprintf("p%d", i), arity: 1 + rng.Intn(3)}
		avail := append([]genPred(nil), g.preds...)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			b.WriteString(g.genRule(head, avail) + "\n")
		}
		g.preds = append(g.preds, head)
	}
	return b.String()
}

// genEDB populates the three sources with random small relations.
func genEDB(rng *rand.Rand) *Database {
	db := NewDatabase()
	for _, s := range []genPred{{"r0", 1}, {"r1", 2}, {"r2", 3}} {
		rel := value.NewRelation(s.arity)
		for i := 0; i < rng.Intn(6); i++ {
			tu := make(value.Tuple, s.arity)
			for j := range tu {
				tu[j] = value.Int(int64(rng.Intn(4)))
			}
			rel.Add(tu)
		}
		db.Set(datalog.Pred(s.name), rel)
	}
	return db
}

// TestRandomProgramsMatchReference generates random well-formed
// nonrecursive programs and random EDBs and asserts that the compiled
// evaluator agrees with the naive reference evaluator.
func TestRandomProgramsMatchReference(t *testing.T) {
	checkRandomProgramsMatchReference(t, 1234, 25, 4)
}

// TestStreamingModesMatchReferenceFuzz is the random-program comparison on
// a second seed.
func TestStreamingModesMatchReferenceFuzz(t *testing.T) {
	checkRandomProgramsMatchReference(t, 4321, 15, 3)
}

// checkRandomProgramsMatchReference draws programs random programs from
// seed, evaluates each on trials random EDBs and asserts Eval agrees with
// refEval on every IDB relation.
func checkRandomProgramsMatchReference(t *testing.T, seed int64, programs, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for pi := 0; pi < programs; pi++ {
		src := genProgram(rng)
		prog := mustProg(t, src)
		ev, err := New(prog)
		if err != nil {
			t.Fatalf("seed %d program %d does not compile (generator bug):\n%s\n%v", seed, pi, src, err)
		}
		for trial := 0; trial < trials; trial++ {
			db := genEDB(rng)
			want := refEval(t, prog, db)
			got := db.Clone()
			if err := ev.Eval(got); err != nil {
				t.Fatalf("seed %d program %d trial %d: %v\n%s", seed, pi, trial, err, src)
			}
			for sym := range prog.IDBPreds() {
				w, g := want.Rel(sym), got.Rel(sym)
				if (g == nil) != (w == nil) || (g != nil && !g.Equal(w)) {
					t.Fatalf("seed %d program %d trial %d: %s differs from reference\ngot=%v\nref=%v\nprogram:\n%s\nEDB:\n%s",
						seed, pi, trial, sym, g, w, src, db)
				}
			}
		}
	}
}
