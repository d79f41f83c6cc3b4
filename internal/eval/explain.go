package eval

import (
	"fmt"
	"strings"
)

// Explain renders the compiled query plans: for every rule, the chosen
// literal order and, per step, whether it scans, probes a hash index (and
// on which argument positions), or tests membership directly. The output is
// for humans debugging strategy performance — e.g. verifying that an
// incrementalized program is driven by the small delta relations instead
// of scanning a base table.
func (e *Evaluator) Explain() string {
	var b strings.Builder
	for _, sym := range e.order {
		for _, cr := range e.rules[sym] {
			writeRulePlan(&b, cr)
		}
	}
	for _, cr := range e.constraints {
		writeRulePlan(&b, cr)
	}
	return b.String()
}

func writeRulePlan(b *strings.Builder, cr *compiledRule) {
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
				fmt.Fprintf(b, "  %d. probe %s via index on positions %v\n", i+1, st.pred, st.keyPos)
			}
		case stepNegAtom:
			if st.fullKey {
				fmt.Fprintf(b, "  %d. anti-join %s by direct membership\n", i+1, st.pred)
			} else {
				fmt.Fprintf(b, "  %d. anti-join %s via index on positions %v\n", i+1, st.pred, st.keyPos)
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
