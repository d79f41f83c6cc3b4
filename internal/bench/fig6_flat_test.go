//go:build !race

package bench

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"birds/internal/engine"
)

// TestFig6LuxuryDputFlat pins the shape of Figure 6 for luxuryitems: a view
// update through the incremental strategy (∂put) costs O(|ΔV|), not
// O(|DB|). It runs the view-update stream — per round, one insert of a
// fresh view tuple and one delete of the previous round's — on a 10k and a
// 40k base, and requires the 40k figures to stay within 1.5× of the 10k
// ones, where a ∂put linear in the base costs about 4×:
//
//   - heap bytes allocated per round, which catch a ∂put that hashes or
//     indexes the base table on every update and do not depend on the
//     host's load;
//   - the median time of a round, which also catches a ∂put that scans the
//     base without allocating. The two databases take their rounds in
//     turn, so load on the host slows both alike.
//
// Like TestStreamingPeakAtTopSize it is left out of race builds, whose
// instrumentation allocates and slows down on its own account.
func TestFig6LuxuryDputFlat(t *testing.T) {
	v, err := Fig6ViewByName("luxuryitems")
	if err != nil {
		t.Fatal(err)
	}
	const warm, rounds, bound = 5, 200, 1.5
	sizes := [2]int{10_000, 40_000}
	type panel struct {
		n     int
		db    *engine.DB
		bytes uint64
		times []time.Duration
	}
	var ps [2]*panel
	for k, n := range sizes {
		db, err := SetupFig6(v, n, true, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ps[k] = &panel{n: n, db: db}
	}
	round := func(p *panel, i int) {
		for _, txn := range v.Update(p.n, i) {
			if err := p.db.Exec(txn...); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i <= warm; i++ {
		for _, p := range ps {
			round(p, i)
		}
	}
	var ms runtime.MemStats
	for i := warm + 1; i <= warm+rounds; i++ {
		for _, p := range ps {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			start := time.Now()
			round(p, i)
			p.times = append(p.times, time.Since(start))
			runtime.ReadMemStats(&ms)
			p.bytes += ms.TotalAlloc - before
		}
	}
	for _, p := range ps {
		if p.db.Stale(v.Name) {
			t.Fatalf("n=%d: view %s fell off the incremental path", p.n, v.Name)
		}
	}
	median := func(ds []time.Duration) float64 {
		slices.Sort(ds)
		return float64(ds[len(ds)/2])
	}
	small, large := ps[0], ps[1]
	bytesRatio := float64(large.bytes) / float64(small.bytes)
	timeRatio := median(large.times) / median(small.times)
	t.Logf("luxuryitems view round: %d B and %v median at 10k base, %d B and %v at 40k (ratios %.2f and %.2f, bound %.1f)",
		small.bytes/rounds, time.Duration(median(small.times)), large.bytes/rounds, time.Duration(median(large.times)),
		bytesRatio, timeRatio, bound)
	if bytesRatio > bound {
		t.Errorf("a view round allocates %.2f× as much at 4× the base, bound %.1f: ∂put is not O(|ΔV|)", bytesRatio, bound)
	}
	if timeRatio > bound {
		t.Errorf("a view round takes %.2f× as long at 4× the base, bound %.1f: ∂put is not O(|ΔV|)", timeRatio, bound)
	}
}
