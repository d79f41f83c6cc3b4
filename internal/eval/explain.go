package eval

import (
	"fmt"
	"strings"
)

// Explain renders the plans Eval would run against db as it stands: for
// each rule, the driver variant pickVariant picks, and for each step whether
// it scans, tests membership, or probes its key positions through a
// maintained index db already has or an ephemeral table built for the
// evaluation. IDB relations are costed as db holds them, i.e. as the last
// evaluation left them. Constraints show their greedy plan, whose probes
// build maintained indexes on demand (Violations). The output is for humans
// checking, e.g., that an incrementalized program is driven by the small
// delta relations instead of scanning a base table. Like Eval, Explain must
// not run concurrently with other methods of the evaluator or with writes
// to db.
func (e *Evaluator) Explain(db *Database) string {
	ec := &e.ec
	for k := range ec.syms {
		ec.refresh(db, k)
	}
	defer ec.reset()
	var b strings.Builder
	for _, sym := range e.order {
		for _, rp := range e.rules[sym] {
			writeRulePlan(&b, rp.pickVariant(ec), func(st *step) string {
				if ec.existingIndex(st) != nil {
					return "maintained index"
				}
				return "ephemeral table"
			})
		}
	}
	for _, cr := range e.constraints {
		writeRulePlan(&b, cr, func(*step) string { return "maintained index" })
	}
	return b.String()
}

// writeRulePlan renders one plan; via names the structure a keyed step
// probes.
func writeRulePlan(b *strings.Builder, cr *compiledRule, via func(*step) string) {
	fmt.Fprintf(b, "rule %s\n", cr.rule)
	for i := range cr.steps {
		st := &cr.steps[i]
		switch st.kind {
		case stepScan:
			switch {
			case st.fullKey:
				fmt.Fprintf(b, "  %d. semi-join %s by direct membership\n", i+1, st.pred)
			case len(st.keyPos) == 0:
				fmt.Fprintf(b, "  %d. scan %s (full)\n", i+1, st.pred)
			default:
				fmt.Fprintf(b, "  %d. probe %s via %s on positions %v\n", i+1, st.pred, via(st), st.keyPos)
			}
		case stepNegAtom:
			if st.fullKey {
				fmt.Fprintf(b, "  %d. anti-join %s by direct membership\n", i+1, st.pred)
			} else {
				fmt.Fprintf(b, "  %d. anti-join %s via %s on positions %v\n", i+1, st.pred, via(st), st.keyPos)
			}
		case stepBuiltin:
			switch {
			case st.bindLt, st.bindRt:
				fmt.Fprintf(b, "  %d. bind via equality\n", i+1)
			default:
				neg := ""
				if st.neg {
					neg = "negated "
				}
				fmt.Fprintf(b, "  %d. filter %s%s\n", i+1, neg, st.op)
			}
		}
	}
}
