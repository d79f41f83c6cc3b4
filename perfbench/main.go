// Command perfbench is the one benchmark of the whole system: the paper's
// two claims (Table 1 validation, Figure 6 view updates) as the gated
// workloads, and the durable group-commit path and the HTTP server as
// per-layer measurements, all against the public APIs of the repository's
// packages, with every output checked.
//
// # Running
//
// From the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace 0
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace 1
//
// run.sh builds this package (its own module, replacing "birds" with the
// tree it sits in) into .bench_build/ and runs it. The seed generates every
// input; the program under test receives only the generated inputs.
// --trace 0 measures the end-to-end metrics, untraced, over --seconds.
// --trace 1 runs an untraced region of a quarter of --seconds, then a traced
// one of the same length and the layer measurements, and reports the
// per-layer metrics and the tracing overhead. Each run prints a report
// (environment stamp, seed, every check, every metric with its unit) and, as
// its last line, one JSON object {correct, attempted, failed, metrics};
// the full report goes to .bench_out/<workload>-seed<n>-trace<t>.json and
// a traced run's spans to .bench_out/<workload>-seed<n>-spans.jsonl. The
// exit status is non-zero when any op failed or any check did not hold.
//
// # Workloads
//
//   - validate: closed loop, 1 client. The 31 expressible Table 1 programs
//     (row 23 is an aggregation) in Table 1 order rotated to start at a
//     seeded row, each through datalog.Parse, core.NewPutback, core.Validate
//     and sqlgen compile, with the oracle bounds of
//     BenchmarkTable1Validation. Runs whole passes over the corpus. The
//     only workload that does fol/sat/core validation work; eval runs on
//     tiny instances, so per-call overhead dominates.
//   - viewupdate: closed loop, 1 client, in memory. View-targeted INSERT and
//     DELETE through DB.Exec on the four Figure 6 panels, installed with
//     Incremental: true at 10k base rows each, in a seeded mix weighted so
//     that p50 and p90 each fall inside one band of panels (viewPanelMix).
//     Algorithm 2, ∂put over the base relations, plan apply. No WAL, no
//     counted IVM.
//
// Two further workloads are not gated, because their figures could not be
// made steady on a shared host: the commit pipeline
// (its throughput swung threefold between runs of the same code and seed)
// and the HTTP server under open-loop load (its latency is a 2 ms flush
// timer plus an fsync on a shared disk, whose median moved by half and p90
// by its own size between runs). Both are measured in viewupdate's traced
// run (serveLayers, commitLayers), so the server, batcher and WAL layers
// keep their per-layer metrics:
//
//   - the shipped server on a loopback listener under open-loop, seeded
//     Poisson arrivals at 120 req/s from 2 keep-alive connections (nproc on
//     the reference machine); 90% /exec writes of the window stream (the
//     DML fixture's items table, which has a selection and a join view),
//     10% /query reads of the luxury view (about 2k rows). Each request is
//     timed from when it was due; the load generator wakes on a timerfd
//     (dueTimer). The same schedule is then played in process.
//   - the group-commit pipeline: one producer goroutine pipelining
//     Batcher.ExecAsync table transactions of the window stream, durable
//     WAL; admission, apply, WAL append and fsync, counted view maintenance,
//     background checkpoints.
//
// The program keeps every relation in memory and has no page cache, so
// there is no cache-size dimension; base size is varied inside the traced
// viewupdate run instead (eval.dput_growth).
//
// # Flush policy
//
// The server: the shipped defaults, size trigger 64 transactions
// (engine.DefaultBatchSize), 2 ms flush interval, fsync on flush, automatic
// checkpoint every 4096 WAL records. The commit pipeline: the same without
// the interval timer.
//
// # Host-speed calibration
//
// The host's speed drifts by a third within minutes, so wall-clock figures
// of two runs of the same code disagree by more than any useful bound. Every gated time is therefore reported at the
// reference speed: the ops are interleaved with short slices of a fixed
// kernel of the benchmark's own (calib.go), and each 2-second segment's op
// times are scaled by the kernel's reference time over its mean time in
// that segment. The wall-clock figures are in the report beside them
// (op_wall_p50_ms, op_wall_p90_ms, ops_per_wall_s, setup_wall_s), with the
// kernel's mean time and the range of the segments' factors.
//
// # End-to-end metrics
//
// Every untraced run reports, gated: setup_s (median of several fixture
// builds up to the first timed op), op_p50_ms, op_tail_ms (p90),
// ops_per_s and peak_mem_mb (the bytes of heap objects, live or not yet
// collected: the median over the timed region's 2-second windows of each
// window's peak). The op is one program validated (validate) or one view-update
// transaction (viewupdate). Times and rates are at the reference speed. On
// validate each program's time is its median over the run's passes;
// op_p50_ms and op_tail_ms are Harrell-Davis quantiles over the corpus of
// those medians, and ops_per_s is programs over the sum of their times
// (the run is whole passes, so the corpus's own mix). On viewupdate
// op_p50_ms and op_tail_ms are quantiles over every transaction of the
// run, and ops_per_s is the median over the run's 2-second segments of
// the segment's transactions over the sum of their times. Neither counts
// the calibration slices. setup_s times: validate, reading the corpus
// (datalog.Parse and core.NewPutback of each program, a few
// milliseconds); viewupdate, loading the four panels and creating their
// views. The report adds, ungated: op_p90_ms, op_p99_ms, fail_frac (failed
// or wrong-output ops ÷ attempted) and the wall-clock figures.
//
// # Per-layer metrics (traced run)
//
// Spans are recorded by this package around each call it makes into a
// layer; nothing inside the program is instrumented. A metric of a layer a
// workload does not reach reads 0. Each metric, the layer it measures, and
// the end-to-end metric it should move; the write-path rows (from
// engine.admit_us down to server.read_overhead_ms) come from viewupdate's
// traced run and name what they would move on a served or committed write:
//
//	datalog.parse_ms          datalog        datalog.Parse per program              validate op_p50_ms (negligible)
//	core.putback_ms           analysis+core  core.NewPutback                        validate op_p50_ms
//	core.validate_ms          core+fol/sat   core.Validate (Algorithm 1 + oracle)   validate ops_per_s, op_tail_ms
//	sqlgen.compile_ms         sqlgen         sqlgen.New(prog).Compile               validate op_p50_ms
//	core.validate_share       core           Σ validate ÷ Σ op time                 validate ops_per_s
//	engine.exec_ms.<panel>    engine         DB.Exec per Figure 6 panel             viewupdate op_p50_ms, ops_per_s
//	eval.dput_ms              eval+core      ∂put Evaluator.Eval, mix-weighted      viewupdate ops_per_s
//	eval.dput_growth          eval           dput_ms at 4× ÷ 1× base (flat = 1)     viewupdate ops_per_s
//	eval.put_full_ms          eval           original putdelta Eval, mix-weighted   none (Figure 6 context)
//	eval.{dput,put_full}_ms.<panel>.{1x,4x}, eval.dput_growth.<panel>: Figure 6's shape per panel
//	engine.view_overhead_ms   engine         exec_ms − dput_ms                      viewupdate op_p50_ms
//	engine.admit_us           engine         ExecAsync that did not flush (commit)  commit throughput
//	engine.flush_ms           engine+eval+wal ExecAsync that filled the batch       commit and served write latency
//	wal.sync_ms               wal            flush_ms at fsync=flush − at fsync=off commit and served write latency
//	engine.txns_per_flush     engine         BatcherStats deltas of the server      served write latency
//	engine.coalesced_frac     engine         coalesced ÷ (flushed + coalesced) rows commit throughput
//	wal.records_per_ktxn      wal            LastLSN delta per 1000 txns (commit)   commit tail latency
//	wal.checkpoints           wal            checkpoints completed (commit)         commit tail latency
//	wal.recover_ms            wal+engine     engine.Recover of the commit directory none (restart time)
//	commit.op_p50_ms          engine+wal     commit latency, admission → durable    none (the commit pipeline's p50)
//	client.queue_ms           load generator due → sent (waiting for a connection)  served write tail
//	loadgen.late_ms           load generator p99 timer lateness when not queued     validity (≪ op latency)
//	loadgen.late_p50_ms       load generator p50 of the same                        validity (≪ op latency)
//	server.write_overhead_ms  server         write p50 − same schedule in process   served write p50
//	server.read_overhead_ms   server         read p50 − in-process DB.GetAll p50    served read p50
//	runtime.alloc_mb_per_op, runtime.gc_cycles_per_kop, runtime.gc_cpu_frac:
//	                          runtime        runtime/metrics deltas, untraced region  that workload's ops_per_s / tail
//	trace.layer_frac          all            share of op span time inside layer spans (the blocking steps account for the op)
//	trace.overhead_frac       all            traced op_p50 ÷ untraced op_p50 − 1
//
// # Checks
//
// validate: every outcome (valid, LVGN, NR, expected get used, SQL bytes)
// equals table1_golden.json. viewupdate: each panel's first 48 transactions
// replayed on a twin built with Incremental: false give the same base
// tables and view (∂put ≡ put). viewupdate's traced run also checks the
// write path: the served database's final state equals a serial replay of
// the acknowledged writes in seq order, every read decodes to a
// well-formed relation of arity 3 (the bodies are decoded after the timed
// region, so the client's decoding does not compete with the server for
// the CPUs), and engine.Recover of the commit pipeline's directory
// reproduces every relation of the live database.
//
// # Out of scope
//
// Spans inside the program (oracle counts, per-pass validation time, the
// commit pipeline's stage histograms), CDC subscribers (the cdc package is
// not measured), and retiring the BENCH_*.json files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// gatedE2E are the end-to-end metrics every untraced run reports; the
// names and units match BENCHMARK.json.
var gatedE2E = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_mem_mb", "MB"},
}

var panelNames = []string{"luxuryitems", "officeinfo", "outstanding_task", "vw_brands"}

// layerMetrics are the per-layer metrics every traced run reports, with
// their units; a metric of a layer the workload does not reach reads 0.
func layerMetrics() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"datalog.parse_ms", "ms"},
		{"core.putback_ms", "ms"},
		{"core.validate_ms", "ms"},
		{"sqlgen.compile_ms", "ms"},
		{"core.validate_share", "ratio"},
	}
	for _, p := range panelNames {
		out = append(out, struct{ name, unit string }{"engine.exec_ms." + p, "ms"})
	}
	out = append(out, []struct{ name, unit string }{
		{"eval.dput_ms", "ms"},
		{"eval.dput_growth", "ratio"},
		{"eval.put_full_ms", "ms"},
		{"engine.view_overhead_ms", "ms"},
	}...)
	for _, p := range panelNames {
		out = append(out, []struct{ name, unit string }{
			{"eval.dput_ms." + p + ".1x", "ms"},
			{"eval.dput_ms." + p + ".4x", "ms"},
			{"eval.put_full_ms." + p + ".1x", "ms"},
			{"eval.put_full_ms." + p + ".4x", "ms"},
			{"eval.dput_growth." + p, "ratio"},
		}...)
	}
	return append(out, []struct{ name, unit string }{
		{"engine.admit_us", "us"},
		{"engine.flush_ms", "ms"},
		{"wal.sync_ms", "ms"},
		{"engine.txns_per_flush", "count"},
		{"engine.coalesced_frac", "ratio"},
		{"wal.records_per_ktxn", "count/ktxn"},
		{"wal.checkpoints", "count"},
		{"wal.recover_ms", "ms"},
		{"client.queue_ms", "ms"},
		{"loadgen.late_ms", "ms"},
		{"loadgen.late_p50_ms", "ms"},
		{"commit.op_p50_ms", "ms"},
		{"server.write_overhead_ms", "ms"},
		{"server.read_overhead_ms", "ms"},
		{"runtime.alloc_mb_per_op", "MB/op"},
		{"runtime.gc_cycles_per_kop", "count/kop"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
		{"trace.layer_frac", "ratio"},
	}...)
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for result files, spans and WAL directories
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one run measured. E2E holds every end-to-end number
// the workload defines (the gated ones and the rest); Layer the per-layer
// numbers of a traced run.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Env       envStamp           `json:"env"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []check            `json:"checks"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

func (r *report) check(name string, ok bool, detail string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(detail, args...)})
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

var workloads = map[string]func(cfg config, rep *report) error{
	"validate":   runValidate,
	"viewupdate": runViewUpdate,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: validate or viewupdate")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "length of the timed region")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload validate|viewupdate --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: filepath.Join(root, ".bench_out")}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	rep := &report{
		Workload: *workload, Seed: *seed, Trace: cfg.trace, Env: stampEnv(root),
		E2E: make(map[string]float64), Layer: make(map[string]float64),
	}
	if err := run(cfg, rep); err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	res := resultJSON{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metricJSON)}
	if cfg.trace {
		for _, m := range layerMetrics() {
			res.Metrics[m.name] = metricJSON{rep.Layer[m.name], m.unit}
		}
	} else {
		for _, m := range gatedE2E {
			res.Metrics[m.name] = metricJSON{rep.E2E[m.name], m.unit}
		}
	}
	printReport(rep)
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traceFlag))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// e2eUnits gives the unit of every end-to-end number a workload may report.
var e2eUnits = map[string]string{
	"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "op_p99_ms": "ms", "op_tail_ms": "ms",
	"ops_per_s": "1/s", "peak_mem_mb": "MB", "fail_frac": "1",
	"ops": "count", "timed_s": "s", "setup_wall_s": "s", "op_wall_p50_ms": "ms", "op_wall_p90_ms": "ms",
	"ops_per_wall_s": "1/s", "cal_kernel_ms": "ms", "cal_factor_min": "1", "cal_factor_max": "1", "cal_time_frac": "1",
}

func printReport(rep *report) {
	fmt.Printf("perfbench %s seed=%d trace=%v\n", rep.Workload, rep.Seed, rep.Trace)
	fmt.Printf("env: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s\n",
		rep.Env.CPU, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.Go, rep.Env.Commit, rep.Env.Source)
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("check %-28s %s  %s\n", c.Name, status, c.Detail)
	}
	printMetrics := func(kind string, m map[string]float64, unit func(string) string) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %-34s %14.6g %s\n", kind, n, m[n], unit(n))
		}
	}
	printMetrics("e2e", rep.E2E, func(n string) string { return e2eUnits[n] })
	units := make(map[string]string)
	for _, m := range layerMetrics() {
		units[m.name] = m.unit
	}
	printMetrics("layer", rep.Layer, func(n string) string { return units[n] })
	for _, n := range rep.Notes {
		fmt.Println("note:", strings.TrimSpace(n))
	}
	fmt.Printf("attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
}

// setE2E records a closed loop's end-to-end figures: lat holds each op's
// time at the reference speed and wallLat the same op's wall time; p50,
// p90 and opsPerS are the workload's figures at the reference speed.
func (r *report) setE2E(setup setupTime, p50, p90, opsPerS float64, lat, wallLat []float64, wall time.Duration, peakMB float64, cal *calibrator) {
	n := float64(len(lat))
	r.E2E["setup_s"] = setup.ref
	r.E2E["op_p50_ms"] = p50
	r.E2E["op_p90_ms"] = p90
	r.E2E["op_tail_ms"] = p90
	r.E2E["op_p99_ms"] = quantileOf(lat, 0.99)
	r.E2E["ops_per_s"] = opsPerS
	r.E2E["peak_mem_mb"] = peakMB
	r.E2E["fail_frac"] = float64(r.Failed) / float64(max(r.Attempted, 1))
	r.E2E["ops"] = n
	r.E2E["timed_s"] = wall.Seconds()
	r.E2E["setup_wall_s"] = setup.wall
	r.E2E["op_wall_p50_ms"] = median(wallLat)
	r.E2E["op_wall_p90_ms"] = quantileOf(wallLat, 0.9)
	r.E2E["ops_per_wall_s"] = n / (sum(wallLat) / 1000)
	k, lo, hi := cal.summary()
	r.E2E["cal_kernel_ms"] = k
	r.E2E["cal_factor_min"] = lo
	r.E2E["cal_factor_max"] = hi
	r.E2E["cal_time_frac"] = cal.spent.Seconds() / wall.Seconds()
}

// timedLoop calls op until the timed region of seconds has passed and op
// reports a boundary (validate ends on whole passes over its corpus), and
// returns the timed wall time.
func timedLoop(seconds float64, op func() (boundary bool, err error)) (time.Duration, error) {
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for {
		boundary, err := op()
		if err != nil {
			return time.Since(start), err
		}
		if boundary && time.Since(start) >= limit {
			return time.Since(start), nil
		}
	}
}
