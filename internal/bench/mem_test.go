package bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// Peak-memory benchmarks for the execution core: full evaluations measured
// with MeasureHeapPeak. The reported peak-MB is the evaluation's working
// overhead — peak heap above the resident base EDB. The executor keeps it
// small by hashing only the small build sides into ephemeral tables
// instead of registering maintained hash indexes on the probed (large)
// relations. TestStreamingPeakAtTopSize bounds the peak at the sweep's top
// size.

// joinHeavyProgram probes the fact table two ways: a fan-out join keyed on
// the non-unique column (an index would hold all of fact by b) and a
// point-lookup join keyed on the unique column (an index with one
// group per fact tuple — the worst case for index heap). Outputs are kept
// small by selective filters/small drivers, so what the measurement
// compares is execution overhead, not output size.
const joinHeavyProgram = `
source fact(a:int, b:int).
source dim(b:int, c:int).
source keys(a:int).
view v(a:int).
wide(X,Z) :- dim(Y,Z), fact(X,Y), Z < %d.
point(Y) :- keys(X), fact(X,Y).
`

// negationHeavyProgram guards a scan of dim with an anti-join against fact
// on its non-unique column: the executor answers the existence probes
// from an existTable with one representative tuple per distinct key, not
// from a full index on fact.
const negationHeavyProgram = `
source fact(a:int, b:int).
source dim(b:int, c:int).
view v(a:int).
fresh(Y,Z) :- dim(Y,Z), not fact(_,Y).
`

// memJoinDB builds the join-heavy EDB: n facts with b fanning out over
// n/16 distinct values, a dim table over those values, and a sparse key
// set hitting 1% of the unique fact column.
func memJoinDB(n int) *eval.Database {
	db := eval.NewDatabase()
	nDim := n / 16
	fact := value.NewRelation(2)
	for i := 0; i < n; i++ {
		fact.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % nDim))})
	}
	dim := value.NewRelation(2)
	for k := 0; k < nDim; k++ {
		dim.Add(value.Tuple{value.Int(int64(k)), value.Int(int64(k * 7))})
	}
	keys := value.NewRelation(1)
	for k := 0; k < n/100; k++ {
		keys.Add(value.Tuple{value.Int(int64(k * 100))})
	}
	db.Set(datalog.Pred("fact"), fact)
	db.Set(datalog.Pred("dim"), dim)
	db.Set(datalog.Pred("keys"), keys)
	return db
}

// memJoinProg renders the join program with its selectivity threshold: the
// Z < t filter passes ~1% of dim.
func memJoinProg(n int) string {
	return fmt.Sprintf(joinHeavyProgram, (n/16)*7/100)
}

// memNegDB builds the negation-heavy EDB: dim ranges over 10% more key
// values than fact covers, so the anti-join keeps a small output.
func memNegDB(n int) *eval.Database {
	db := eval.NewDatabase()
	nKeys := n / 16
	fact := value.NewRelation(2)
	for i := 0; i < n; i++ {
		fact.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % nKeys))})
	}
	dim := value.NewRelation(2)
	for k := 0; k < nKeys+nKeys/10; k++ {
		dim.Add(value.Tuple{value.Int(int64(k)), value.Int(int64(k * 3))})
	}
	db.Set(datalog.Pred("fact"), fact)
	db.Set(datalog.Pred("dim"), dim)
	return db
}

type memShape struct {
	name string
	prog func(n int) string
	edb  func(n int) *eval.Database
}

var memShapes = []memShape{
	{"join", memJoinProg, memJoinDB},
	{"neg", func(int) string { return negationHeavyProgram }, memNegDB},
}

// memSizes sweeps the base-table size from 10k to 1.6M tuples — the top
// size 4× the largest base any previous benchmark evaluated.
var memSizes = []int{10_000, 100_000, 400_000, 1_600_000}

func memProgOf(t testing.TB, src string) *datalog.Program {
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// measureEval runs one full evaluation of shape at size n over a fresh
// database and returns the heap measurement. init selects the counted-IVM
// initialization (EvalDelta's first call) instead of a plain Eval.
func measureEval(t testing.TB, shape memShape, n int, init bool) HeapStats {
	prog := memProgOf(t, shape.prog(n))
	ev, err := eval.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := shape.edb(n)
	return MeasureHeapPeak(func() {
		if init {
			if _, err := ev.EvalDelta(db, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := ev.Eval(db); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalMemory sweeps (shape × size) for full evaluation and
// (join × size) for the counted init, reporting the peak working overhead
// and the durable live overhead in MB alongside wall time.
func BenchmarkEvalMemory(b *testing.B) {
	for _, shape := range memShapes {
		for _, n := range memSizes {
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					st := measureEval(b, shape, n, false)
					b.ReportMetric(float64(st.PeakOverhead())/1e6, "peak-MB")
					b.ReportMetric(float64(st.LiveOverhead())/1e6, "live-MB")
				}
			})
		}
	}
	for _, n := range memSizes {
		b.Run(fmt.Sprintf("init/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := measureEval(b, memShapes[0], n, true)
				b.ReportMetric(float64(st.PeakOverhead())/1e6, "peak-MB")
				b.ReportMetric(float64(st.LiveOverhead())/1e6, "live-MB")
			}
		})
	}
}

// TestMeasureHeapPeakObservesAllocation sanity-checks the sampler: an
// operation holding a 64 MB slice must show up in Peak, and must be gone
// from Live after it is dropped.
func TestMeasureHeapPeakObservesAllocation(t *testing.T) {
	var hold []byte
	st := MeasureHeapPeak(func() {
		hold = make([]byte, 64<<20)
		for i := 0; i < len(hold); i += 4096 {
			hold[i] = byte(i)
		}
		hold = nil
	})
	if got := st.PeakOverhead(); got < 60<<20 {
		t.Errorf("peak overhead %d bytes, want >= 60MB", got)
	}
	if got := st.LiveOverhead(); got > 8<<20 {
		t.Errorf("live overhead %d bytes after dropping the slice, want < 8MB", got)
	}
}

// HeapStats is one peak-memory measurement around an operation: heap sizes
// are bytes of live heap (runtime.MemStats.HeapAlloc).
type HeapStats struct {
	// Base is the live heap after a GC immediately before the operation —
	// the resident state (base tables, engine structures) the operation
	// runs against.
	Base uint64
	// Peak is the largest heap observed while the operation ran (sampled,
	// plus a final read when it returned): base state, outputs, and every
	// transient the operation allocated that a GC had not yet collected.
	// Peak - Base is the operation's working overhead — the axis the
	// streaming executor optimizes.
	Peak uint64
	// Live is the heap after the operation and a GC: what it durably
	// added (e.g. materialized IDB relations).
	Live uint64
}

// PeakOverhead returns Peak - Base, the operation's transient working set.
func (h HeapStats) PeakOverhead() uint64 {
	if h.Peak < h.Base {
		return 0
	}
	return h.Peak - h.Base
}

// LiveOverhead returns Live - Base, what the operation durably allocated.
func (h HeapStats) LiveOverhead() uint64 {
	if h.Live < h.Base {
		return 0
	}
	return h.Live - h.Base
}

// MeasureHeapPeak runs op and samples the heap around it: GC, read the
// base, poll HeapAlloc from a background goroutine (~1ms cadence) while op
// runs, then read a final sample, GC again and read the surviving live
// heap. The sampler can only under-report a very short-lived spike between
// two polls; for the evaluation-scale operations this package measures
// (hundreds of milliseconds and up) the error is negligible.
func MeasureHeapPeak(op func()) HeapStats {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st := HeapStats{Base: ms.HeapAlloc, Peak: ms.HeapAlloc}

	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sms runtime.MemStats
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&sms)
				mu.Lock()
				if sms.HeapAlloc > st.Peak {
					st.Peak = sms.HeapAlloc
				}
				mu.Unlock()
			}
		}
	}()

	op()

	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > st.Peak {
		st.Peak = ms.HeapAlloc
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.Live = ms.HeapAlloc
	return st
}
