//go:build !race

package bench

import "testing"

// TestStreamingPeakAtTopSize pins the streaming executor's headline memory
// figure: a full streaming evaluation of the join-heavy program over 1.6M
// base tuples must peak at no more than 23.4 MB of working heap above the
// base EDB, twice the 11.7 MB quoted in the README. It is left out of race
// builds, whose instrumentation inflates both the heap and the run time of
// a 1.6M-tuple evaluation.
func TestStreamingPeakAtTopSize(t *testing.T) {
	if testing.Short() {
		t.Skip("1.6M-tuple evaluation")
	}
	const (
		n     = 1_600_000
		bound = 23.4e6
	)
	st := measureEval(t, memShapes[0], n, false)
	peak := st.PeakOverhead()
	t.Logf("n=%d: streaming peak overhead %.2f MB (bound %.1f MB)", n, float64(peak)/1e6, bound/1e6)
	if float64(peak) > bound {
		t.Errorf("streaming peak overhead %.2f MB exceeds %.1f MB", float64(peak)/1e6, bound/1e6)
	}
}
