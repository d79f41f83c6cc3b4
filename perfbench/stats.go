package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of xs (not
// modified): the mean of the order statistics weighted by a Beta(q(n+1),
// (1-q)(n+1)) distribution over their ranks. Over a few dozen values it
// moves smoothly when two values near the quantile trade places, where the
// sample quantile jumps from one to the other.
func hdQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	pdf := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - la - lb + lab)
	}
	// Simpson's rule over each order statistic's interval of ranks.
	const steps = 64
	var est, total float64
	for i, v := range s {
		lo, h := float64(i)/n, 1/(n*steps)
		w := pdf(lo) + pdf(lo+steps*h)
		for k := 1; k < steps; k++ {
			w += float64(2+2*(k%2)) * pdf(lo+float64(k)*h)
		}
		est += v * w
		total += w
	}
	return est / total
}

// quantileOf is quantile on a copy of xs, which stays in its order.
func quantileOf(xs []float64, q float64) float64 {
	return quantile(append([]float64(nil), xs...), q)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// timedRegion is the length of a run's untraced timed region: the whole
// --seconds untraced, a quarter of it in a traced run, which also runs the
// traced region and the layer measurements.
func timedRegion(cfg config) float64 {
	if cfg.trace {
		return cfg.seconds / 4
	}
	return cfg.seconds
}

// serveSeconds is the length of each open-loop phase of the write-path
// measurements in viewupdate's traced run (serveLayers), and commitSeconds
// that of the commit pipeline's durable phase (commitLayers), long enough
// for several automatic checkpoints.
const (
	serveSeconds  = 8
	commitSeconds = 20
)

// setupReps is how many times a workload builds its fixture; setup_s is the
// median. validate's fixture takes a few milliseconds, so it builds its
// fixture more often.
const (
	setupReps         = 7
	setupRepsValidate = 51
	setupCalSlices    = 8 // kernel slices before each build and after the last
)

// setupTime is the median of a workload's fixture builds, in wall-clock
// seconds and at the reference speed.
type setupTime struct{ ref, wall float64 }

// repeatSetup runs build n times and returns the last run's fixture with
// the median build time (the others are left to the collector). A
// single build is too noisy to gate on; the median of several is what
// setup_s reports. Kernel slices run before each build and after the last,
// and their mean gives the speed factor of the set-up.
func repeatSetup[T any](n int, cal *calibrator, build func() (T, error)) (T, setupTime, error) {
	var zero T
	times := make([]float64, 0, n)
	var ks []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		for j := 0; j < setupCalSlices; j++ {
			ks = append(ks, cal.slice())
		}
		start := time.Now()
		fx, err := build()
		if err != nil {
			return zero, setupTime{}, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == n-1 {
			for j := 0; j < setupCalSlices; j++ {
				ks = append(ks, cal.slice())
			}
			wall := median(times)
			return fx, setupTime{ref: wall * calRefMS / mean(ks), wall: wall}, nil
		}
	}
	return zero, setupTime{}, nil
}

// runtimeSample is a reading of the Go runtime counters a timed region is
// charged with.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// runtimeLayer turns the runtime counter deltas of a timed region of ops
// operations into the runtime.* per-layer metrics.
func runtimeLayer(before, after runtimeSample, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	frac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		frac = (after.gcCPU - before.gcCPU) / cpu
	}
	return map[string]float64{
		"runtime.alloc_mb_per_op":   float64(after.allocBytes-before.allocBytes) / 1e6 / n,
		"runtime.gc_cycles_per_kop": float64(after.gcCycles-before.gcCycles) * 1000 / n,
		"runtime.gc_cpu_frac":       frac,
	}
}

// memSampler records the program's heap over a timed region: the bytes of
// heap objects, live or not yet collected, whose peak between two
// collections is the heap the program makes the process hold. It keeps the
// peak in each memWindow of the region. It optionally records the distinct
// checkpoint files that appear in a WAL directory meanwhile.
type memSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	mu      sync.Mutex
	peaks   []uint64 // per window
	ckpts   map[string]bool
	initial int // checkpoint files present when sampling started
}

// memWindow is the window a peak is taken over; the region's figure is the
// median of its windows' peaks, which a single late collection does not
// move. Two other measures were no use as a gate: the memory held from the
// OS moved by a third with one such overshoot and is otherwise whole pages
// (ten runs of validate read the same byte count), and the collector's heap
// goal sits at its 4 MB floor on validate.
const (
	memSampleEvery = 5 * time.Millisecond
	memWindow      = 2 * time.Second
)

// startMemSampler collects garbage left by set-up, then samples until stop.
// walDir, when not empty, is polled for checkpoint files.
func startMemSampler(walDir string) *memSampler {
	runtime.GC()
	m := &memSampler{stop: make(chan struct{}), start: time.Now(), ckpts: make(map[string]bool)}
	m.sample(walDir)
	m.initial = len(m.ckpts)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for i := 1; ; i++ {
			select {
			case <-m.stop:
				m.sample(walDir)
				return
			case <-tick.C:
				// The directory is listed at a tenth of the memory rate:
				// checkpoints are seconds apart.
				dir := ""
				if i%10 == 0 {
					dir = walDir
				}
				m.sample(dir)
			}
		}
	}()
	return m
}

func (m *memSampler) sample(walDir string) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	inUse := s[0].Value.Uint64()
	var names []string
	if walDir != "" {
		if ents, err := os.ReadDir(walDir); err == nil {
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), "checkpoint-") && strings.HasSuffix(e.Name(), ".ckpt") {
					names = append(names, e.Name())
				}
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := int(time.Since(m.start) / memWindow)
	for len(m.peaks) <= w {
		m.peaks = append(m.peaks, 0)
	}
	m.peaks[w] = max(m.peaks[w], inUse)
	for _, n := range names {
		m.ckpts[n] = true
	}
}

// finish stops sampling and returns the median of the windows' peaks in
// MB and the number of checkpoint files that appeared while it ran.
func (m *memSampler) finish() (peakMB float64, checkpoints int) {
	close(m.stop)
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	peaks := make([]float64, len(m.peaks))
	for i, p := range m.peaks {
		peaks[i] = float64(p) / 1e6
	}
	return median(peaks), len(m.ckpts) - m.initial
}

// histogram is a log-bucketed latency histogram (buckets 1% wide from 1 µs
// up), for workloads with too many ops to keep every latency: it costs the
// timed region no allocation.
type histogram struct {
	counts []uint64
	n      uint64
}

const (
	histMinMS  = 1e-3
	histGrowth = 1.01
	histBins   = 2400 // up to ~24 s
)

func newHistogram() *histogram { return &histogram{counts: make([]uint64, histBins)} }

func (h *histogram) add(v float64) {
	b := 0
	if v > histMinMS {
		b = min(int(math.Log(v/histMinMS)/math.Log(histGrowth)), histBins-1)
	}
	h.counts[b]++
	h.n++
}

// quantile interpolates linearly by rank inside the bucket holding the
// q-quantile.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen uint64
	for b, c := range h.counts {
		if c == 0 || float64(seen+c) <= rank {
			seen += c
			continue
		}
		lo := histMinMS * math.Pow(histGrowth, float64(b))
		frac := (rank - float64(seen) + 0.5) / float64(c)
		return lo + (lo*histGrowth-lo)*frac
	}
	return histMinMS * math.Pow(histGrowth, histBins)
}
