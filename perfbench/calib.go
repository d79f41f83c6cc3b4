package main

import (
	"math"
	"math/rand"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a few cores of a shared host, and the host's speed
// moves with what the other tenants run: within milliseconds (a fixed 5 ms
// kernel reads anywhere from 5 to 13 ms) and over minutes (the same
// viewupdate run read 3.3 ms at p50, and 2.2 ms two minutes later). A
// wall-clock figure of one run therefore says as much about the host as
// about the program, and two sets of runs of the same code disagree by
// more than any useful bound.
//
// So the timed region interleaves its ops with short slices of a fixed
// kernel of the benchmark's own, and every gated time is reported at the
// reference speed: the ops of a segment of the run (about calSegment long)
// have their times multiplied by calRefMS over the mean kernel slice of the
// same segment. The kernel calls nothing of the program and allocates
// nothing, so a change to the program does not change its time, while a
// change of host speed moves both and cancels. The wall-clock figures stay
// in the report, ungated.
//
// The kernel has two parts, so that it sees both ways the other tenants
// slow the host down: probes of a small hash table that stays in the
// per-core L1 and L2 (the core's own speed, which a busy sibling hyperthread
// takes from), and a pointer chase through a random cycle much larger than
// the shared L3 (memory latency, which the other tenants' traffic takes
// from). Neither part depends on what the workload leaves in the caches:
// the small table is back in L1 within its first probes, and every step of
// the chase misses the L3 whatever it holds. One dependence remains: the
// chase's page-table entries are cached or not, and its slices read about
// a fifth slower between viewupdate's ops than between validate's; a
// change to the program that moves much more or much less memory per op
// moves that share of the kernel too, and the gate sees a little less of
// the change than the wall clock does. Its memory lives outside the Go
// heap (mapWords), so the workload's garbage collection is paced as it
// would be without it.
//
// Kernels were chosen by running both workloads in 2-second segments with
// slices of each candidate between the ops, and regressing the segments'
// log op cost on the log mean slice time. Over 10-second blocks, scaling by
// this kernel left 0.032 (viewupdate) and 0.029 (validate) of the raw
// 0.053 and 0.048 standard deviation; a kernel of hash probes over an
// L2-sized and an L3-sized table left 0.036 and 0.037, and since the
// workload's own data evicts such tables between ops, its time also
// depended on the workload.

const (
	calTableSize = 1 << 10 // entries of the small table: 16 KB of slots
	calProbes    = 40000   // probes of the small table per slice
	calChaseSize = 1 << 24 // words of the chase: 128 MB
	calSteps     = 750     // chase steps per slice
	// calEvery is the interval at which the ops are interleaved with kernel
	// slices: one slice per calEvery of elapsed time, taken between ops.
	calEvery = 25 * time.Millisecond
	// calSegment is the length of the stretch of ops one speed factor
	// applies to.
	calSegment = 2 * time.Second
	// calRefMS is a slice's time at the reference speed: about its mean on
	// the reference machine (the env stamp's CPU) in a quiet period, so
	// that a gated figure reads about as that machine's wall clock would
	// then.
	calRefMS = 0.5
)

// calibrator interleaves kernel slices with a workload's ops and turns the
// ops' wall times into times at the reference speed.
type calibrator struct {
	table calTable
	chase calChase
	sink  uint64
	last  time.Time // when the last slice was due
	spent time.Duration

	segStart time.Time
	segOps   []float64 // wall ms of the open segment's ops
	segK     []float64 // kernel slices of the open segment
	ref      []float64 // reference-speed ms of the closed segments' ops
	allK     []float64
	factors  []float64 // per closed segment
	rates    []float64 // per closed segment: ops per second at the reference speed
}

func newCalibrator(seed int64) *calibrator {
	rng := rand.New(rand.NewSource(seed))
	return &calibrator{table: newCalTable(calTableSize, rng), chase: newCalChase(calChaseSize, rng)}
}

func (c *calibrator) slice() float64 {
	start := time.Now()
	c.sink = c.table.probe(calProbes, c.sink)
	c.chase.run(calSteps)
	return ms(time.Since(start))
}

// start opens the first segment of a timed region.
func (c *calibrator) start() {
	now := time.Now()
	c.last, c.segStart = now, now
	c.segOps, c.segK, c.ref, c.allK, c.factors, c.rates, c.spent = nil, nil, nil, nil, nil, nil, 0
}

// between runs the slices that came due since the last one; the workload
// calls it between two ops. Time spent here is in no op.
func (c *calibrator) between() {
	now := time.Now()
	for n := 0; now.Sub(c.last) >= calEvery && n < 40; n++ {
		c.last = c.last.Add(calEvery)
		k := c.slice()
		c.segK = append(c.segK, k)
		c.allK = append(c.allK, k)
	}
	if now.Sub(c.last) >= calEvery {
		c.last = now // an op longer than 40 slices' worth: do not catch up further
	}
	c.spent += time.Since(now)
}

// op records the wall time of an op of the open segment.
func (c *calibrator) op(wallMS float64) {
	c.segOps = append(c.segOps, wallMS)
	if time.Since(c.segStart) >= calSegment {
		c.closeSegment()
	}
}

// closeSegment ends the open segment (making sure it holds a slice) and
// appends its ops' times at the reference speed to ref.
func (c *calibrator) closeSegment() {
	if len(c.segOps) == 0 {
		return
	}
	if len(c.segK) == 0 {
		k := c.slice()
		c.segK, c.allK = append(c.segK, k), append(c.allK, k)
	}
	f := calRefMS / mean(c.segK)
	c.factors = append(c.factors, f)
	for _, d := range c.segOps {
		c.ref = append(c.ref, d*f)
	}
	c.rates = append(c.rates, float64(len(c.segOps))/(sum(c.segOps)*f/1000))
	c.segOps, c.segK = c.segOps[:0], c.segK[:0]
	c.segStart = time.Now()
}

// finish closes the last segment and returns every op's time at the
// reference speed, in the order the ops were recorded since start.
func (c *calibrator) finish() []float64 {
	c.closeSegment()
	ref := c.ref
	c.ref = nil
	return ref
}

// summary reports the mean kernel slice over the run and the lowest and
// highest segment factor.
func (c *calibrator) summary() (meanMS, lo, hi float64) {
	lo = math.Inf(1)
	for _, f := range c.factors {
		lo, hi = min(lo, f), max(hi, f)
	}
	return mean(c.allK), lo, hi
}
