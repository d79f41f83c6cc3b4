package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"birds/internal/bench"
	"birds/internal/engine"
	"birds/internal/server"
	"birds/internal/value"
	"birds/internal/wal"
)

// serveBase is the served fixture's base size: with about half the items
// priced over 1000 plus the primed hot window, the luxury view a read
// returns is about two thousand rows long.
const serveBase = 3000

// serveRate is the offered load in requests per second. Two closed-loop
// sessions sustain about 520 req/s of this mix against the shipped server
// on the reference machine; at a third of that the server saturated in the
// host's slowest phases (write p50 4 ms -> 50 ms), so the rate is about a
// quarter. Most writes arrive alone, the case the flush timer taxes, and
// some share a flush.
const serveRate = 120

// serveReadShare is the share of requests that are /query reads.
const serveReadShare = 0.1

// serveConns is the number of keep-alive connections, and of client
// goroutines, the load generator uses: nproc on the reference machine.
const serveConns = 2

// serveSLO is the latency limit the report counts requests over, about ten
// times the write median of the shipped server.
const serveSLO = 30 * time.Millisecond

const serveView = "luxury"

var serveRels = []string{"items", "owners", "luxury", "owned"}

// serveFx is a durable DML fixture served over a loopback listener with
// the shipped server defaults (batch 64, 2 ms flush interval, fsync on
// flush, default checkpoint cadence).
type serveFx struct {
	db     *engine.DB
	srv    *server.Server
	hs     *http.Server
	url    string
	dir    string
	served chan error
}

func setupServe(cfg config) (*serveFx, error) {
	dir, err := os.MkdirTemp(cfg.out, "wal-serve-")
	if err != nil {
		return nil, err
	}
	db, _, err := bench.SetupBatchedDML(serveBase, engine.DefaultBatchSize, cfg.seed)
	if err == nil {
		err = db.EnableDurability(engine.DurabilityOptions{Dir: dir, Sync: wal.SyncOnFlush})
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := server.New(db, server.Config{})
	fx := &serveFx{db: db, srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { fx.served <- fx.hs.Serve(ln) }()
	resp, err := http.Get(fx.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		fx.release()
		return nil, err
	}
	return fx, nil
}

// stop shuts the listener down and drains the server (flushing its batch);
// the database stays open.
func (fx *serveFx) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := fx.hs.Shutdown(ctx)
	if serr := <-fx.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := fx.srv.Drain(); err == nil {
		err = derr
	}
	return err
}

func (fx *serveFx) release() {
	fx.stop()
	fx.db.Close()
	os.RemoveAll(fx.dir)
}

// serveReq is one scheduled request: a write (transaction txn of the window
// stream) or a read of the luxury view.
type serveReq struct {
	due   time.Duration
	read  bool
	txn   int
	price int
}

// serveSchedule draws Poisson arrivals at serveRate for the given length;
// its writes are the window stream's transactions after the first txns.
func serveSchedule(seed int64, seconds float64, txns int) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	var out []serveReq
	at, limit, txn := 0.0, seconds, txns
	for {
		at += rng.ExpFloat64() / serveRate
		if at >= limit {
			return out
		}
		r := serveReq{due: time.Duration(at * float64(time.Second)), read: rng.Float64() < serveReadShare}
		if !r.read {
			txn++
			r.txn, r.price = txn, rng.Intn(2000)+1
		}
		out = append(out, r)
	}
}

type wireCond struct {
	Col string `json:"col"`
	Op  string `json:"op"`
	Val any    `json:"val"`
}

type wireStmt struct {
	Op     string     `json:"op"`
	Target string     `json:"target"`
	Row    []any      `json:"row,omitempty"`
	Where  []wireCond `json:"where,omitempty"`
}

func wireValue(v value.Value) any {
	if v.Kind() == value.KindString {
		return v.AsString()
	}
	return v.AsInt()
}

// writeBody is the /exec request of a scheduled write: its window-stream
// transaction (inserts and equality deletes of ints and strings) in the
// server's wire form.
func writeBody(r serveReq) []byte {
	var body struct {
		Stmts []wireStmt `json:"stmts"`
	}
	for _, st := range windowStmts(serveBase, r.txn, r.price) {
		w := wireStmt{Op: "insert", Target: st.Target}
		for _, v := range st.Row {
			w.Row = append(w.Row, wireValue(v))
		}
		if st.Kind == engine.StmtDelete {
			w.Op = "delete"
			for _, c := range st.Where {
				w.Where = append(w.Where, wireCond{Col: c.Col, Op: "=", Val: wireValue(c.Val)})
			}
		}
		body.Stmts = append(body.Stmts, w)
	}
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // ints and strings always encode
	}
	return data
}

var readBody = []byte(`{"rels":["` + serveView + `"]}`)

// serveResult is the outcome of one scheduled request.
type serveResult struct {
	lat, queue, late float64 // ms: due → done, due → sent, timer lateness
	queued           bool    // no connection was free when it was due
	ok               bool
	seq              uint64  // writes: the server's serialization order
	body             spooled // reads: the response, checked after the run
	err              string
	done             time.Time
}

type servePhase struct {
	res []serveResult
}

// runOpenLoop plays the schedule: serveConns client goroutines claim
// requests in order, sleep until each is due, send it and record its
// latency from the due time. do performs one request.
func runOpenLoop(sched []serveReq, tr *tracer, do func(worker int, r serveReq, l *lane) serveResult) (servePhase, error) {
	ph := servePhase{res: make([]serveResult, len(sched))}
	timers := make([]*dueTimer, serveConns)
	for w := range timers {
		t, err := newDueTimer()
		if err != nil {
			return ph, err
		}
		defer t.close()
		timers[w] = t
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	t0 := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func(w int, l *lane) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				r := sched[k]
				due := t0.Add(r.due)
				var late time.Duration
				queued := true
				if time.Until(due) > 0 {
					if errs[w] = timers[w].sleepUntil(due); errs[w] != nil {
						return
					}
					late, queued = time.Since(due), false
				}
				l.newOp()
				l.beginAt("op", due)
				l.beginAt("client.queue", due)
				l.end()
				sent := time.Now()
				res := do(w, r, l)
				done := time.Now()
				l.end()
				res.lat, res.queue, res.late, res.queued, res.done = ms(done.Sub(due)), ms(sent.Sub(due)), ms(late), queued, done
				ph.res[k] = res
			}
		}(w, tr.lane())
	}
	wg.Wait()
	return ph, errors.Join(errs...)
}

// readSpool keeps the bodies of a phase's reads in files until they are
// checked after the timed region. Decoding a read costs the client about as
// much CPU as the server's encode, and the client shares the machine with
// the server; kept in memory, the bodies would grow the heap whose peak
// peak_mem_mb reports. One file per client goroutine.
type readSpool struct {
	files []*os.File
	off   []int64
}

type spooled struct {
	file     int
	off, len int64
}

func newReadSpool(dir string) (*readSpool, error) {
	sp := &readSpool{off: make([]int64, serveConns)}
	for i := 0; i < serveConns; i++ {
		f, err := os.CreateTemp(dir, "reads-")
		if err != nil {
			sp.close()
			return nil, err
		}
		sp.files = append(sp.files, f)
	}
	return sp, nil
}

func (sp *readSpool) put(w int, data []byte) (spooled, error) {
	n, err := sp.files[w].Write(data)
	b := spooled{file: w, off: sp.off[w], len: int64(n)}
	sp.off[w] += int64(n)
	return b, err
}

func (sp *readSpool) get(b spooled) ([]byte, error) {
	data := make([]byte, b.len)
	_, err := sp.files[b.file].ReadAt(data, b.off)
	return data, err
}

func (sp *readSpool) close() {
	for _, f := range sp.files {
		f.Close()
		os.Remove(f.Name())
	}
}

// httpDo returns the request function of the HTTP client: one keep-alive
// connection per worker. Read bodies go to sp.
func httpDo(url string, sp *readSpool) func(int, serveReq, *lane) serveResult {
	clients := make([]*http.Client, serveConns)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return func(w int, r serveReq, l *lane) serveResult {
		var res serveResult
		path, body, span := "/exec", writeBody(r), "server.exec"
		if r.read {
			path, body, span = "/query", readBody, "server.query"
		}
		l.begin(span)
		resp, err := clients[w].Post(url+path, "application/json", bytes.NewReader(body))
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
			}
		}
		l.end()
		if err == nil && r.read {
			res.body, err = sp.put(w, data)
		}
		res.ok = err == nil
		switch {
		case err != nil:
			res.err = err.Error()
		case !r.read:
			var er struct {
				OK  bool   `json:"ok"`
				Seq uint64 `json:"seq"`
			}
			if err := json.Unmarshal(data, &er); err != nil || !er.OK || er.Seq == 0 {
				res.ok, res.err = false, fmt.Sprintf("exec: unexpected response %s", data)
			}
			res.seq = er.Seq
		}
		return res
	}
}

// checkReads decodes the spooled bodies of a phase's reads and marks each
// read that is not well-formed as failed.
func checkReads(sched []serveReq, ph servePhase, sp *readSpool) error {
	for k := range ph.res {
		res := &ph.res[k]
		if !sched[k].read || !res.ok {
			continue
		}
		data, err := sp.get(res.body)
		if err != nil {
			return err
		}
		if err := checkReadBody(data); err != nil {
			res.ok, res.err = false, err.Error()
		}
	}
	return nil
}

// checkReadBody requires a /query response to decode to one well-formed
// relation: the luxury view, arity 3, count rows of (int, string, int).
func checkReadBody(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var qr struct {
		OK        bool `json:"ok"`
		Relations []struct {
			Name  string  `json:"name"`
			Arity int     `json:"arity"`
			Count int     `json:"count"`
			Rows  [][]any `json:"rows"`
		} `json:"relations"`
	}
	if err := dec.Decode(&qr); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if !qr.OK || len(qr.Relations) != 1 {
		return fmt.Errorf("query: want one relation")
	}
	rel := qr.Relations[0]
	if rel.Name != serveView || rel.Arity != 3 || rel.Count != len(rel.Rows) || rel.Count == 0 {
		return fmt.Errorf("query: malformed relation %s/%d with %d of %d rows", rel.Name, rel.Arity, len(rel.Rows), rel.Count)
	}
	for _, row := range rel.Rows {
		if len(row) != 3 {
			return fmt.Errorf("query: row of arity %d", len(row))
		}
		id, ok1 := row[0].(json.Number)
		_, ok2 := row[1].(string)
		price, ok3 := row[2].(json.Number)
		if !ok1 || !ok2 || !ok3 || strings.ContainsAny(string(id)+string(price), ".eE") {
			return fmt.Errorf("query: row %v does not match (int, string, int)", row)
		}
	}
	return nil
}

// checkServeReplay requires the served database's final state to equal a
// serial replay, in seq order, of the acknowledged writes on a fresh copy
// of the fixture.
func checkServeReplay(fx *serveFx, sched []serveReq, ph servePhase, seed int64, rep *report) error {
	live, err := fx.db.GetAll(serveRels...)
	if err != nil {
		return err
	}
	type acked struct {
		seq uint64
		r   serveReq
	}
	var writes []acked
	for k, res := range ph.res {
		if !sched[k].read && res.ok {
			writes = append(writes, acked{res.seq, sched[k]})
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].seq < writes[j].seq })
	twin, _, err := bench.SetupBatchedDML(serveBase, engine.DefaultBatchSize, seed)
	if err != nil {
		return err
	}
	for _, w := range writes {
		if err := twin.Exec(windowStmts(serveBase, w.r.txn, w.r.price)...); err != nil {
			return fmt.Errorf("replay txn %d: %w", w.r.txn, err)
		}
	}
	got, err := twin.GetAll(serveRels...)
	if err != nil {
		return err
	}
	var diff []string
	for _, n := range serveRels {
		if !got[n].Equal(live[n]) {
			diff = append(diff, n)
		}
	}
	rep.check("serve_equals_serial_replay", len(diff) == 0, "%d acknowledged writes replayed in seq order; differing relations: %v", len(writes), diff)
	return nil
}

// serveLatencies splits a phase's latencies by request kind and counts
// failures.
func serveLatencies(sched []serveReq, ph servePhase, rep *report) (writes, reads []float64, sloMiss int) {
	for k, res := range ph.res {
		rep.Attempted++
		if !res.ok {
			rep.Failed++
			sloMiss++
			if len(rep.Notes) < 20 {
				rep.note("request %d failed: %s", k, res.err)
			}
			continue
		}
		if res.lat > ms(serveSLO) {
			sloMiss++
		}
		if sched[k].read {
			reads = append(reads, res.lat)
		} else {
			writes = append(writes, res.lat)
		}
	}
	return writes, reads, sloMiss
}

// serveLayers measures the write path in viewupdate's traced run: the
// shipped server under open-loop load for seconds untraced and then for
// seconds traced (the same arrivals, continuing the window stream), the same
// schedule in process, and the group-commit pipeline (commitLayers). It
// checks every read and the served state, and reports the server, batcher,
// WAL and load-generator metrics.
func serveLayers(cfg config, seconds float64, tr *tracer, rep *report) error {
	fx, err := setupServe(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(fx.dir)
	defer fx.db.Close()
	sched := serveSchedule(cfg.seed, seconds, 0)
	s0 := fx.srv.Batcher().Stats()
	sp, err := newReadSpool(cfg.out)
	if err != nil {
		return err
	}
	defer sp.close()
	ph, err := runOpenLoop(sched, nil, httpDo(fx.url, sp))
	if err != nil {
		return err
	}
	s1 := fx.srv.Batcher().Stats()
	if err := checkReads(sched, ph, sp); err != nil {
		return err
	}
	writes, reads, sloMiss := serveLatencies(sched, ph, rep)
	wp50, rp50 := quantile(writes, 0.5), quantile(reads, 0.5)
	var late []float64
	for _, res := range ph.res {
		if !res.queued {
			late = append(late, res.late)
		}
	}
	lateP50, lateP99 := quantile(late, 0.5), quantile(late, 0.99)
	rep.note("serve: open loop, Poisson %d req/s for %.0f s, %.0f%% /query reads of %q, %d keep-alive connections; %d writes p50 %.3f p90 %.3f p99 %.3f ms; %d reads p50 %.3f p99 %.3f ms; %d of %d over the %v SLO or failed; txns/flush %.2f; load generator late p50 %.3f p99 %.3f ms",
		serveRate, seconds, serveReadShare*100, serveView, serveConns,
		len(writes), wp50, quantile(writes, 0.9), quantile(writes, 0.99), len(reads), rp50, quantile(reads, 0.99),
		sloMiss, len(ph.res), serveSLO, float64(s1.FlushedTxns-s0.FlushedTxns)/float64(max(s1.Flushes-s0.Flushes, 1)), lateP50, lateP99)

	// The traced phase offers the same arrivals; its writes continue the
	// window stream.
	lastTxn := 0
	for _, r := range sched {
		lastTxn = max(lastTxn, r.txn)
	}
	tsched := serveSchedule(cfg.seed, seconds, lastTxn)
	tsp, err := newReadSpool(cfg.out)
	if err != nil {
		return err
	}
	defer tsp.close()
	tph, err := runOpenLoop(tsched, tr, httpDo(fx.url, tsp))
	if err != nil {
		return err
	}
	t1 := fx.srv.Batcher().Stats()
	if err := checkReads(tsched, tph, tsp); err != nil {
		return err
	}
	serveLatencies(tsched, tph, rep)
	var queue []float64
	for _, res := range tph.res {
		queue = append(queue, res.queue)
	}
	rep.Layer["client.queue_ms"] = mean(queue)
	rep.Layer["loadgen.late_ms"] = lateP99
	rep.Layer["loadgen.late_p50_ms"] = lateP50
	rep.Layer["engine.txns_per_flush"] = float64(t1.FlushedTxns-s1.FlushedTxns) / float64(max(t1.Flushes-s1.Flushes, 1))
	inWrite, inRead, err := inProcessServe(cfg, sched)
	if err != nil {
		return err
	}
	rep.Layer["server.write_overhead_ms"] = wp50 - inWrite
	rep.Layer["server.read_overhead_ms"] = rp50 - inRead
	if err := commitLayers(cfg, commitSeconds, tr, rep); err != nil {
		return err
	}
	if err := fx.stop(); err != nil {
		return err
	}
	ph.res = append(ph.res, tph.res...)
	return checkServeReplay(fx, append(sched, tsched...), ph, cfg.seed, rep)
}

// inProcessServe plays the same schedule against the engine directly, with
// the server's batching settings: writes through Batcher.ExecAsync + Wait,
// reads through DB.GetAll. It returns the write and read medians in ms.
func inProcessServe(cfg config, sched []serveReq) (write50, read50 float64, err error) {
	dir, err := os.MkdirTemp(cfg.out, "wal-inproc-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	db, _, err := bench.SetupBatchedDML(serveBase, engine.DefaultBatchSize, cfg.seed)
	if err != nil {
		return 0, 0, err
	}
	if err := db.EnableDurability(engine.DurabilityOptions{Dir: dir, Sync: wal.SyncOnFlush}); err != nil {
		return 0, 0, err
	}
	defer db.Close()
	bt := db.Batch(engine.BatchOptions{MaxTxns: engine.DefaultBatchSize, FlushInterval: server.DefaultFlushInterval})
	defer bt.Close()
	ph, err := runOpenLoop(sched, nil, func(_ int, r serveReq, _ *lane) serveResult {
		var err error
		if r.read {
			_, err = db.GetAll(serveView)
		} else if _, c, aerr := bt.ExecAsync(windowStmts(serveBase, r.txn, r.price)...); aerr != nil {
			err = aerr
		} else {
			err = c.Wait()
		}
		return serveResult{ok: err == nil}
	})
	if err != nil {
		return 0, 0, err
	}
	var writes, reads []float64
	for k, res := range ph.res {
		if !res.ok {
			return 0, 0, fmt.Errorf("in-process request %d failed", k)
		}
		if sched[k].read {
			reads = append(reads, res.lat)
		} else {
			writes = append(writes, res.lat)
		}
	}
	return quantile(writes, 0.5), quantile(reads, 0.5), nil
}
