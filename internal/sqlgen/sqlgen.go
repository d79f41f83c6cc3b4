// Package sqlgen compiles the Datalog view definitions and putback
// programs into PostgreSQL-dialect SQL: a CREATE VIEW statement for get and
// an INSTEAD OF trigger program for the update strategy, following §6.1 of
// the paper. The generated text is the artifact whose size Table 1 reports
// ("Compiled SQL (Byte)"); it is also executable on a real PostgreSQL
// installation, while this repository's in-memory engine executes the same
// strategies natively.
package sqlgen

import (
	"fmt"
	"sort"
	"strings"

	"birds/internal/analysis"
	"birds/internal/core"
	"birds/internal/datalog"
)

// Compiler translates programs over a fixed schema.
type Compiler struct {
	prog  *datalog.Program
	attrs map[string][]string // relation name -> column names
}

// New builds a compiler for the putback program's schema.
func New(prog *datalog.Program) *Compiler {
	c := &Compiler{prog: prog, attrs: make(map[string][]string)}
	for _, s := range prog.Sources {
		c.attrs[s.Name] = attrNames(s)
	}
	if prog.View != nil {
		c.attrs[prog.View.Name] = attrNames(prog.View)
	}
	return c
}

func attrNames(d *datalog.RelDecl) []string {
	out := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		out[i] = a.Name
	}
	return out
}

// columns returns the column names for a predicate, synthesizing col1..colN
// for auxiliary IDB relations.
func (c *Compiler) columns(name string, arity int) []string {
	if cols, ok := c.attrs[name]; ok && len(cols) == arity {
		return cols
	}
	cols := make([]string, arity)
	for i := range cols {
		cols[i] = fmt.Sprintf("col%d", i+1)
	}
	return cols
}

// relName renders a predicate symbol as a SQL table/CTE identifier; delta
// predicates get the __ins/__del suffix convention.
func relName(p datalog.PredSym) string {
	switch p.Delta {
	case datalog.Insert:
		return "__ins_" + p.Name
	case datalog.Delete:
		return "__del_" + p.Name
	default:
		return p.Name
	}
}

// RuleSelect renders one rule as a SELECT statement.
func (c *Compiler) RuleSelect(r *datalog.Rule) (string, error) {
	if r.Head == nil {
		return c.constraintSelect(r)
	}
	body, err := c.bodySQL(r)
	if err != nil {
		return "", err
	}
	cols := c.columns(r.Head.Pred.Name, r.Head.Arity())
	var sel []string
	for i, t := range r.Head.Args {
		expr, err := body.termExpr(t)
		if err != nil {
			return "", fmt.Errorf("sqlgen: rule %q: %w", r, err)
		}
		sel = append(sel, fmt.Sprintf("%s AS %s", expr, cols[i]))
	}
	return "SELECT DISTINCT " + strings.Join(sel, ", ") + body.fromWhere(), nil
}

// constraintSelect renders a constraint body as the EXISTS probe of §6.1.
func (c *Compiler) constraintSelect(r *datalog.Rule) (string, error) {
	body, err := c.bodySQL(r)
	if err != nil {
		return "", err
	}
	return "SELECT 1" + body.fromWhere(), nil
}

// bodyState accumulates FROM aliases and WHERE conditions for a rule body.
type bodyState struct {
	c       *Compiler
	froms   []string
	wheres  []string
	binding map[string]string // variable -> SQL expression
}

func (c *Compiler) bodySQL(r *datalog.Rule) (*bodyState, error) {
	b := &bodyState{c: c, binding: make(map[string]string)}

	// First pass: positive atoms establish aliases and bindings.
	alias := 0
	for _, l := range r.Body {
		if l.Atom == nil || l.Neg {
			continue
		}
		alias++
		a := fmt.Sprintf("t%d", alias)
		b.froms = append(b.froms, fmt.Sprintf("%s AS %s", relName(l.Atom.Pred), a))
		cols := c.columns(l.Atom.Pred.Name, l.Atom.Arity())
		for i, t := range l.Atom.Args {
			ref := a + "." + cols[i]
			switch {
			case t.IsConst():
				b.wheres = append(b.wheres, fmt.Sprintf("%s = %s", ref, t.Const.SQL()))
			case t.IsVar():
				if prev, ok := b.binding[t.Var]; ok {
					b.wheres = append(b.wheres, fmt.Sprintf("%s = %s", ref, prev))
				} else {
					b.binding[t.Var] = ref
				}
			}
		}
	}

	// Positive equalities may bind further variables (X = c, X = Y).
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if l.Builtin == nil || l.Neg || l.Builtin.Op != datalog.OpEq {
				continue
			}
			lt, rt := l.Builtin.L, l.Builtin.R
			bindOne := func(v datalog.Term, other datalog.Term) bool {
				if !v.IsVar() {
					return false
				}
				if _, ok := b.binding[v.Var]; ok {
					return false
				}
				if expr, err := b.termExpr(other); err == nil {
					b.binding[v.Var] = expr
					return true
				}
				return false
			}
			if bindOne(lt, rt) || bindOne(rt, lt) {
				changed = true
			}
		}
	}

	// Second pass: comparisons, remaining equalities, and negations.
	for _, l := range r.Body {
		switch {
		case l.Builtin != nil:
			le, err := b.termExpr(l.Builtin.L)
			if err != nil {
				return nil, fmt.Errorf("sqlgen: rule %q: %w", r, err)
			}
			re, err := b.termExpr(l.Builtin.R)
			if err != nil {
				return nil, fmt.Errorf("sqlgen: rule %q: %w", r, err)
			}
			// A binding equality is already reflected in the binding map;
			// re-emitting it is harmless (X = X) only when both sides
			// resolve to the same expression, so skip that case.
			if l.Builtin.Op == datalog.OpEq && !l.Neg && le == re {
				continue
			}
			cond := fmt.Sprintf("%s %s %s", le, sqlOp(l.Builtin.Op), re)
			if l.Neg {
				cond = "NOT (" + cond + ")"
			}
			b.wheres = append(b.wheres, cond)
		case l.Neg:
			sub, err := b.notExists(l.Atom)
			if err != nil {
				return nil, fmt.Errorf("sqlgen: rule %q: %w", r, err)
			}
			b.wheres = append(b.wheres, sub)
		}
	}
	return b, nil
}

func (b *bodyState) termExpr(t datalog.Term) (string, error) {
	switch {
	case t.IsConst():
		return t.Const.SQL(), nil
	case t.IsVar():
		if expr, ok := b.binding[t.Var]; ok {
			return expr, nil
		}
		return "", fmt.Errorf("variable %s is not bound by a positive literal", t.Var)
	default:
		return "", fmt.Errorf("anonymous variable has no SQL expression")
	}
}

func (b *bodyState) notExists(a *datalog.Atom) (string, error) {
	cols := b.c.columns(a.Pred.Name, a.Arity())
	var conds []string
	for i, t := range a.Args {
		if t.IsAnon() {
			continue
		}
		expr, err := b.termExpr(t)
		if err != nil {
			return "", err
		}
		conds = append(conds, fmt.Sprintf("n.%s = %s", cols[i], expr))
	}
	where := ""
	if len(conds) > 0 {
		where = " WHERE " + strings.Join(conds, " AND ")
	}
	return fmt.Sprintf("NOT EXISTS (SELECT 1 FROM %s AS n%s)", relName(a.Pred), where), nil
}

func (b *bodyState) fromWhere() string {
	var sb strings.Builder
	if len(b.froms) > 0 {
		sb.WriteString(" FROM ")
		sb.WriteString(strings.Join(b.froms, ", "))
	}
	if len(b.wheres) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(b.wheres, " AND "))
	}
	return sb.String()
}

func sqlOp(op datalog.CmpOp) string {
	if op == datalog.OpEq {
		return "="
	}
	return op.String()
}

// QuerySQL renders a complete Datalog query (the rules defining goal plus
// the auxiliary predicates they depend on) as a WITH query.
func (c *Compiler) QuerySQL(rules []*datalog.Rule, goal datalog.PredSym) (string, error) {
	prog := &datalog.Program{Sources: c.prog.Sources, View: c.prog.View, Rules: rules}
	order, err := analysis.Stratify(prog)
	if err != nil {
		return "", err
	}
	var ctes []string
	for _, sym := range order {
		if sym == goal {
			continue
		}
		sel, err := c.unionSelect(prog.RulesFor(sym))
		if err != nil {
			return "", err
		}
		ctes = append(ctes, fmt.Sprintf("%s AS (%s)", relName(sym), sel))
	}
	main, err := c.unionSelect(prog.RulesFor(goal))
	if err != nil {
		return "", err
	}
	if len(ctes) == 0 {
		return main, nil
	}
	return "WITH " + strings.Join(ctes, ",\n     ") + "\n" + main, nil
}

func (c *Compiler) unionSelect(rules []*datalog.Rule) (string, error) {
	if len(rules) == 0 {
		return "", fmt.Errorf("sqlgen: no rules for goal")
	}
	parts := make([]string, len(rules))
	for i, r := range rules {
		sel, err := c.RuleSelect(r)
		if err != nil {
			return "", err
		}
		parts[i] = sel
	}
	return strings.Join(parts, "\nUNION\n"), nil
}

// CompileView renders CREATE VIEW for the (derived or expected) get rules.
func (c *Compiler) CompileView(getRules []*datalog.Rule) (string, error) {
	q, err := c.QuerySQL(getRules, datalog.Pred(c.prog.View.Name))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("CREATE OR REPLACE VIEW %s AS\n%s;\n", c.prog.View.Name, q), nil
}

// CompileTrigger renders the INSTEAD OF trigger program of §6.1: a PL/pgSQL
// function that derives the view delta from the DML statement, checks the
// integrity constraints, computes each source delta into a temporary table
// and applies it.
func (c *Compiler) CompileTrigger() (string, error) {
	view := c.prog.View.Name
	viewCols := c.columns(view, c.prog.View.Arity())
	var sb strings.Builder

	fmt.Fprintf(&sb, "CREATE OR REPLACE FUNCTION %s_update_strategy() RETURNS TRIGGER\n", view)
	sb.WriteString("LANGUAGE plpgsql SECURITY DEFINER AS $$\nBEGIN\n")

	// Step 1: derive the view delta from the DML statement (Appendix D).
	fmt.Fprintf(&sb, "  -- Deriving changes on the view %s\n", view)
	fmt.Fprintf(&sb, "  CREATE TEMP TABLE IF NOT EXISTS __ins_%s (LIKE %s) ON COMMIT DROP;\n", view, view)
	fmt.Fprintf(&sb, "  CREATE TEMP TABLE IF NOT EXISTS __del_%s (LIKE %s) ON COMMIT DROP;\n", view, view)
	sb.WriteString("  IF TG_OP = 'INSERT' OR TG_OP = 'UPDATE' THEN\n")
	fmt.Fprintf(&sb, "    DELETE FROM __del_%s WHERE ROW(%s) = NEW;\n", view, strings.Join(viewCols, ", "))
	fmt.Fprintf(&sb, "    INSERT INTO __ins_%s SELECT NEW.*;\n", view)
	sb.WriteString("  END IF;\n")
	sb.WriteString("  IF TG_OP = 'DELETE' OR TG_OP = 'UPDATE' THEN\n")
	fmt.Fprintf(&sb, "    DELETE FROM __ins_%s WHERE ROW(%s) = OLD;\n", view, strings.Join(viewCols, ", "))
	fmt.Fprintf(&sb, "    INSERT INTO __del_%s SELECT OLD.*;\n", view)
	sb.WriteString("  END IF;\n\n")

	// Step 2: constraint checks.
	if cons := c.prog.Constraints(); len(cons) > 0 {
		sb.WriteString("  -- Checking constraints\n")
		for _, r := range cons {
			probe, err := c.constraintSelect(r)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "  IF EXISTS (%s) THEN\n", probe)
			fmt.Fprintf(&sb, "    RAISE EXCEPTION 'Invalid view update: constraint %% violated', %s;\n",
				sqlStringLiteral(r.String()))
			sb.WriteString("  END IF;\n")
		}
		sb.WriteString("\n")
	}

	// Step 3: compute and apply each source delta.
	sb.WriteString("  -- Calculating and applying delta relations\n")
	for _, s := range sortedSources(c.prog) {
		for _, d := range []datalog.PredSym{datalog.Del(s.Name), datalog.Ins(s.Name)} {
			rules := c.prog.RulesFor(d)
			if len(rules) == 0 {
				continue
			}
			q, err := c.QuerySQL(c.supportRules(d), d)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "  CREATE TEMP TABLE %s ON COMMIT DROP AS\n  %s;\n",
				relName(d), indent(q, "  "))
		}
		cols := c.columns(s.Name, s.Arity())
		if len(c.prog.RulesFor(datalog.Del(s.Name))) > 0 {
			fmt.Fprintf(&sb, "  DELETE FROM %s WHERE ROW(%s) IN (SELECT * FROM %s);\n",
				s.Name, strings.Join(cols, ", "), relName(datalog.Del(s.Name)))
		}
		if len(c.prog.RulesFor(datalog.Ins(s.Name))) > 0 {
			fmt.Fprintf(&sb, "  INSERT INTO %s SELECT * FROM %s EXCEPT SELECT * FROM %s;\n",
				s.Name, relName(datalog.Ins(s.Name)), s.Name)
		}
	}

	sb.WriteString("  RETURN NULL;\nEND;\n$$;\n\n")
	fmt.Fprintf(&sb, "DROP TRIGGER IF EXISTS %s_trigger ON %s;\n", view, view)
	fmt.Fprintf(&sb, "CREATE TRIGGER %s_trigger\n  INSTEAD OF INSERT OR UPDATE OR DELETE ON %s\n  FOR EACH ROW EXECUTE PROCEDURE %s_update_strategy();\n",
		view, view, view)
	return sb.String(), nil
}

// CompileIncrementalTrigger renders the trigger program for an
// incrementalized strategy (the ∂put of Section 5): identical scaffolding
// to CompileTrigger, but the delta queries read the view-delta temp tables
// __ins_v / __del_v instead of the full view, which is what makes the
// trigger's cost proportional to the update in the paper's §6.2
// experiment. Pass the program produced by core.Incrementalize.
func (c *Compiler) CompileIncrementalTrigger(dput *datalog.Program) (string, error) {
	if dput.View == nil || dput.View.Name != c.prog.View.Name {
		return "", fmt.Errorf("sqlgen: ∂put program must target view %q", c.prog.View.Name)
	}
	inc := New(dput)
	view := c.prog.View.Name
	viewCols := c.columns(view, c.prog.View.Arity())
	var sb strings.Builder

	fmt.Fprintf(&sb, "CREATE OR REPLACE FUNCTION %s_update_strategy_inc() RETURNS TRIGGER\n", view)
	sb.WriteString("LANGUAGE plpgsql SECURITY DEFINER AS $$\nBEGIN\n")
	fmt.Fprintf(&sb, "  -- Deriving changes on the view %s\n", view)
	fmt.Fprintf(&sb, "  CREATE TEMP TABLE IF NOT EXISTS __ins_%s (LIKE %s) ON COMMIT DROP;\n", view, view)
	fmt.Fprintf(&sb, "  CREATE TEMP TABLE IF NOT EXISTS __del_%s (LIKE %s) ON COMMIT DROP;\n", view, view)
	sb.WriteString("  IF TG_OP = 'INSERT' OR TG_OP = 'UPDATE' THEN\n")
	fmt.Fprintf(&sb, "    DELETE FROM __del_%s WHERE ROW(%s) = NEW;\n", view, strings.Join(viewCols, ", "))
	fmt.Fprintf(&sb, "    INSERT INTO __ins_%s SELECT NEW.*;\n", view)
	sb.WriteString("  END IF;\n")
	sb.WriteString("  IF TG_OP = 'DELETE' OR TG_OP = 'UPDATE' THEN\n")
	fmt.Fprintf(&sb, "    DELETE FROM __ins_%s WHERE ROW(%s) = OLD;\n", view, strings.Join(viewCols, ", "))
	fmt.Fprintf(&sb, "    INSERT INTO __del_%s SELECT OLD.*;\n", view)
	sb.WriteString("  END IF;\n\n")

	// Constraints are checked against the insertion delta, with the rules
	// the engine checks (core.DeltaConstraintProgram); the exception names
	// the original constraint.
	if cons := c.prog.Constraints(); len(cons) > 0 {
		sb.WriteString("  -- Checking constraints against the inserted tuples\n")
		delta := core.DeltaConstraintProgram(c.prog).Constraints()
		for i, r := range cons {
			probe, err := c.constraintSelect(delta[i])
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "  IF EXISTS (%s) THEN\n", probe)
			fmt.Fprintf(&sb, "    RAISE EXCEPTION 'Invalid view update: constraint %% violated', %s;\n",
				sqlStringLiteral(r.String()))
			sb.WriteString("  END IF;\n")
		}
		sb.WriteString("\n")
	}

	sb.WriteString("  -- Calculating and applying delta relations (∂put)\n")
	for _, s := range sortedSources(dput) {
		for _, d := range []datalog.PredSym{datalog.Del(s.Name), datalog.Ins(s.Name)} {
			rules := dput.RulesFor(d)
			if len(rules) == 0 {
				continue
			}
			q, err := inc.QuerySQL(inc.supportRules(d), d)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "  CREATE TEMP TABLE %s ON COMMIT DROP AS\n  %s;\n",
				relName(d), indent(q, "  "))
		}
		cols := c.columns(s.Name, s.Arity())
		if len(dput.RulesFor(datalog.Del(s.Name))) > 0 {
			fmt.Fprintf(&sb, "  DELETE FROM %s WHERE ROW(%s) IN (SELECT * FROM %s);\n",
				s.Name, strings.Join(cols, ", "), relName(datalog.Del(s.Name)))
		}
		if len(dput.RulesFor(datalog.Ins(s.Name))) > 0 {
			fmt.Fprintf(&sb, "  INSERT INTO %s SELECT * FROM %s EXCEPT SELECT * FROM %s;\n",
				s.Name, relName(datalog.Ins(s.Name)), s.Name)
		}
	}

	sb.WriteString("  RETURN NULL;\nEND;\n$$;\n\n")
	fmt.Fprintf(&sb, "DROP TRIGGER IF EXISTS %s_trigger ON %s;\n", view, view)
	fmt.Fprintf(&sb, "CREATE TRIGGER %s_trigger\n  INSTEAD OF INSERT OR UPDATE OR DELETE ON %s\n  FOR EACH ROW EXECUTE PROCEDURE %s_update_strategy_inc();\n",
		view, view, view)
	return sb.String(), nil
}

// supportRules returns the rules needed to evaluate goal: its own rules
// plus transitively referenced auxiliary rules.
func (c *Compiler) supportRules(goal datalog.PredSym) []*datalog.Rule {
	needed := map[datalog.PredSym]bool{goal: true}
	for changed := true; changed; {
		changed = false
		for _, r := range c.prog.Rules {
			if r.IsConstraint() || !needed[r.Head.Pred] {
				continue
			}
			for _, l := range r.Body {
				if l.Atom == nil {
					continue
				}
				p := l.Atom.Pred
				if len(c.prog.RulesFor(p)) > 0 && !needed[p] {
					needed[p] = true
					changed = true
				}
			}
		}
	}
	var out []*datalog.Rule
	for _, r := range c.prog.Rules {
		if !r.IsConstraint() && needed[r.Head.Pred] {
			out = append(out, r)
		}
	}
	return out
}

// Compile produces the complete SQL artifact: base DDL comments, the view
// definition and the trigger program.
func (c *Compiler) Compile(getRules []*datalog.Rule) (string, error) {
	var sb strings.Builder
	sb.WriteString("-- Generated by the BIRDS-Go compiler from a Datalog putback program.\n")
	sb.WriteString("-- Source schema:\n")
	for _, s := range c.prog.Sources {
		fmt.Fprintf(&sb, "--   %s\n", s)
	}
	fmt.Fprintf(&sb, "-- View: %s\n\n", c.prog.View)
	view, err := c.CompileView(getRules)
	if err != nil {
		return "", err
	}
	sb.WriteString(view)
	sb.WriteString("\n")
	trig, err := c.CompileTrigger()
	if err != nil {
		return "", err
	}
	sb.WriteString(trig)
	return sb.String(), nil
}

func sortedSources(p *datalog.Program) []*datalog.RelDecl {
	out := append([]*datalog.RelDecl{}, p.Sources...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sqlStringLiteral(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func indent(s, pad string) string {
	return strings.ReplaceAll(s, "\n", "\n"+pad)
}
