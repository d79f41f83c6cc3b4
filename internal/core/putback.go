// Package core implements the paper's primary contribution: the validation
// algorithm for Datalog putback programs (Algorithm 1, Section 4) — with
// derivation of the view definition get from the update strategy via the
// φ1/φ2/φ3 decomposition of Lemma 4.2 — and the incrementalization
// algorithm of Section 5 (Lemma 5.2 and the rewrite system of Appendix C).
//
// Validate runs Algorithm 1's oracle searches concurrently when an expected
// get is given: the well-definedness search on the calling goroutine, and
// GetPut and PutGet over the expected get speculatively, on one goroutine
// each. It keeps the algorithm's precedence (a well-definedness failure,
// then a GetPut failure, then a PutGet failure), cancels the searches
// whose outcome it no longer needs, and returns the Result, verdict and
// witness included, that running the passes one after another returns.
// Each search compiles its own evaluators, so concurrent Validate calls on
// one Putback are safe. At GOMAXPROCS=1 the verdict is the same; the
// searches then take turns on the single processor, so a well-definedness
// rejection shares it with the speculative searches until it cancels them.
package core

import (
	"fmt"

	"birds/internal/analysis"
	"birds/internal/datalog"
	"birds/internal/eval"
)

// Putback is a checked, compiled view update strategy.
type Putback struct {
	Prog  *datalog.Program
	Class analysis.Class
	eval  *eval.Evaluator
}

// NewPutback checks the structural obligations of a putback program (§3.1)
// and compiles it for evaluation. The program must be in NR-Datalog with
// negation and built-ins (nonrecursive and safe); LVGN membership is
// recorded but not required.
func NewPutback(prog *datalog.Program) (*Putback, error) {
	if err := analysis.CheckPutbackShape(prog); err != nil {
		return nil, err
	}
	class := analysis.Classify(prog)
	if !class.NRDatalog() {
		return nil, fmt.Errorf("core: program is outside NR-Datalog¬: %v", class.Violations)
	}
	ev, err := eval.New(prog)
	if err != nil {
		return nil, err
	}
	return &Putback{Prog: prog, Class: class, eval: ev}, nil
}

// Evaluator returns the compiled evaluator for the program.
func (p *Putback) Evaluator() *eval.Evaluator { return p.eval }

// ViewSym returns the view predicate symbol.
func (p *Putback) ViewSym() datalog.PredSym { return datalog.Pred(p.Prog.View.Name) }

// Put performs one putback step on db (sources + updated view): evaluate
// the delta relations, verify non-contradiction, check the integrity
// constraints, and apply the deltas to the source relations.
func (p *Putback) Put(db *eval.Database) error {
	if err := p.eval.Eval(db); err != nil {
		return err
	}
	violated, err := p.eval.Violations(db)
	if err != nil {
		return err
	}
	if len(violated) > 0 {
		return &ConstraintError{Violated: violated}
	}
	_, _, err = eval.ApplyDeltas(db, p.Prog.Sources)
	return err
}

// ConstraintError reports rejected view updates (§3.2.3: "Any view updates
// that violate these constraints are rejected").
type ConstraintError struct {
	Violated []*datalog.Rule
}

func (e *ConstraintError) Error() string {
	return fmt.Sprintf("core: view update violates %d integrity constraint(s), e.g. %s",
		len(e.Violated), e.Violated[0])
}

// GetProgram packages derived or expected get rules as an evaluable
// program over the putback program's sources.
func GetProgram(putdelta *datalog.Program, getRules []*datalog.Rule) *datalog.Program {
	return &datalog.Program{
		Sources: putdelta.Sources,
		View:    putdelta.View,
		Rules:   getRules,
	}
}
