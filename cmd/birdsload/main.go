// Command birdsload is the load generator for birds-serve: N concurrent
// sessions drive coalescing write streams through POST /exec and the tool
// reports throughput and latency percentiles per concurrency level.
//
//	$ birds-serve -addr :8344 -durable ./data -fsync flush &
//	$ birdsload -addr 127.0.0.1:8344 -setup -sessions 1,8,64 -writes 500 -json serve.json
//
// Each session writes into a private id range of the shared items table:
// write i inserts a fresh hot row and deletes the previous one — the
// steady-state stream of the DML maintenance benchmark, where group commit
// coalesces consecutive writes into small net deltas. Every write is an
// acknowledged transaction: the request returns only after the batch
// holding it has flushed (and, on a durable server, fsynced per the
// server's mode), so the measured latency is commit latency, not
// enqueue latency.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type result struct {
	Sessions      int     `json:"sessions"`
	WritesPerSess int     `json:"writes_per_session"`
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	Retries       int     `json:"retries"`
	Shed          int     `json:"shed"`
	WallMS        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50us         float64 `json:"p50_us"`
	P95us         float64 `json:"p95_us"`
	P99us         float64 `json:"p99_us"`
	Flushes       uint64  `json:"flushes"`
	Admitted      uint64  `json:"admitted"`
	CoalescedRows uint64  `json:"coalesced_rows"`
	TxnsPerFlush  float64 `json:"txns_per_flush"`

	// CDC delta-latency measurement (-subscribe N): N concurrent
	// GET /subscribe/luxury streams record when each inserted row's delta
	// event arrives. Delivery latency is arrival minus the write's ack
	// (the CDC fan-out cost on top of commit — the headline number);
	// end-to-end latency is arrival minus the write's POST start (what a
	// dashboard behind the stream actually waits after the client acts).
	Subscribers   int     `json:"subscribers,omitempty"`
	DeltaSamples  int     `json:"delta_samples,omitempty"`
	DeliveryP50us float64 `json:"delivery_p50_us,omitempty"`
	DeliveryP95us float64 `json:"delivery_p95_us,omitempty"`
	DeliveryP99us float64 `json:"delivery_p99_us,omitempty"`
	E2EP50us      float64 `json:"e2e_p50_us,omitempty"`
	E2EP95us      float64 `json:"e2e_p95_us,omitempty"`
	E2EP99us      float64 `json:"e2e_p99_us,omitempty"`
	SubResyncs    int     `json:"sub_resyncs,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "birdsload:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8344", "server address (host:port)")
	sessions := flag.String("sessions", "1,8,64", "comma-separated sweep of concurrent session counts")
	writes := flag.Int("writes", 500, "acknowledged write transactions per session")
	setup := flag.Bool("setup", false, "create the items table and luxury view fixture first (idempotent only on a fresh server)")
	retries := flag.Int("max-retries", 5, "retry budget per write for transient failures (connection errors, 503 shed/overload)")
	subscribe := flag.Int("subscribe", 0,
		"open this many GET /subscribe/luxury CDC streams during each sweep and report delta-latency percentiles")
	subBuffer := flag.Int("subscribe-buffer", 1024, "per-stream subscription buffer in events")
	jsonOut := flag.String("json", "", "write the results array to this file")
	label := flag.String("label", "", "label recorded with each result (e.g. batched/unbatched)")
	flag.Parse()

	base := "http://" + *addr
	if err := waitHealthy(base, 5*time.Second); err != nil {
		return err
	}
	if *setup {
		if err := setupFixture(base); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}

	var levels []int
	for _, f := range strings.Split(*sessions, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -sessions entry %q", f)
		}
		levels = append(levels, n)
	}

	var results []any
	idBase := 1_000_000 // keep sweep points in disjoint id ranges
	for _, n := range levels {
		res, err := sweep(base, n, *writes, idBase, *retries, *subscribe, *subBuffer)
		if err != nil {
			return err
		}
		idBase += 2 * n * (*writes + 2)
		fmt.Printf("sessions=%-3d writes/sess=%-5d throughput=%8.0f req/s  p50=%7.0fµs p95=%7.0fµs p99=%7.0fµs  txns/flush=%.1f  retries=%d shed=%d errs=%d\n",
			n, *writes, res.ThroughputRPS, res.P50us, res.P95us, res.P99us, res.TxnsPerFlush, res.Retries, res.Shed, res.Errors)
		if *label != "" {
			results = append(results, struct {
				Label string `json:"label"`
				result
			}{*label, res})
		} else {
			results = append(results, res)
		}
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
	}
	return nil
}

// deltaTracker correlates write acknowledgments with CDC event arrivals
// across the load goroutines and every subscriber stream. An inserted id
// yields one (delivery, e2e) sample per subscriber that sees it; event
// arrivals racing ahead of the ack response (common — the hub publishes
// under the same lock that flushes the batch) park in pending until the
// ack lands and then clamp to zero delivery latency.
type deltaTracker struct {
	mu       sync.Mutex
	start    map[int]time.Time   // POST start per inserted id
	ack      map[int]time.Time   // ack time per inserted id
	pending  map[int][]time.Time // event arrivals seen before the ack
	delivery []time.Duration
	e2e      []time.Duration
	resyncs  int
}

func newDeltaTracker() *deltaTracker {
	return &deltaTracker{
		start:   make(map[int]time.Time),
		ack:     make(map[int]time.Time),
		pending: make(map[int][]time.Time),
	}
}

func (t *deltaTracker) preWrite(id int, at time.Time) {
	t.mu.Lock()
	t.start[id] = at
	t.mu.Unlock()
}

func (t *deltaTracker) sampleLocked(id int, arrival time.Time) {
	d := arrival.Sub(t.ack[id])
	if d < 0 {
		d = 0
	}
	t.delivery = append(t.delivery, d)
	t.e2e = append(t.e2e, arrival.Sub(t.start[id]))
}

func (t *deltaTracker) acked(id int, at time.Time) {
	t.mu.Lock()
	t.ack[id] = at
	for _, arrival := range t.pending[id] {
		t.sampleLocked(id, arrival)
	}
	delete(t.pending, id)
	t.mu.Unlock()
}

func (t *deltaTracker) arrived(id int, at time.Time) {
	t.mu.Lock()
	if _, ok := t.start[id]; !ok { // not one of ours (another sweep level)
		t.mu.Unlock()
		return
	}
	if _, ok := t.ack[id]; ok {
		t.sampleLocked(id, at)
	} else {
		t.pending[id] = append(t.pending[id], at)
	}
	t.mu.Unlock()
}

func (t *deltaTracker) samples() (delivery, e2e []time.Duration, resyncs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.delivery...), append([]time.Duration(nil), t.e2e...), t.resyncs
}

// subscriber tails /subscribe/luxury and feeds insert-row arrival times
// into the tracker. It returns when ctx is canceled or the stream ends.
func subscriber(ctx context.Context, base string, buffer int, tr *deltaTracker, ready *sync.WaitGroup) error {
	live := false
	markLive := func() {
		if !live {
			live = true
			ready.Done()
		}
	}
	defer markLive() // never leave the sweep waiting on a failed stream
	url := fmt.Sprintf("%s/subscribe/luxury?buffer=%d&policy=drop", base, buffer)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	client := &http.Client{} // dedicated connection: streams must not share the writers' pool
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("subscribe: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		var ev struct {
			Type   string  `json:"type"`
			Insert [][]any `json:"insert"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		markLive() // the snapshot line arrived: the stream is live
		switch ev.Type {
		case "delta":
			now := time.Now()
			for _, row := range ev.Insert {
				if len(row) == 0 {
					continue
				}
				if id, ok := row[0].(float64); ok {
					tr.arrived(int(id), now)
				}
			}
		case "resync":
			tr.mu.Lock()
			tr.resyncs++
			tr.mu.Unlock()
		}
	}
	return sc.Err()
}

// sweep runs one concurrency level: n sessions, each issuing `writes`
// acknowledged transactions into a private id range; with nSubs > 0,
// nSubs CDC streams measure delta latency alongside.
func sweep(base string, n, writes, idBase, maxRetries, nSubs, subBuffer int) (result, error) {
	// One pooled connection per session: the default transport keeps only
	// two idle connections per host, which would turn a 64-session sweep
	// into a TCP re-dial storm and measure the dialer instead of the
	// server.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        n + 8,
		MaxIdleConnsPerHost: n + 8,
	}}
	bs, err := batcherStats(base)
	if err != nil {
		return result{}, err
	}

	// Open the CDC streams first and wait until every one has its
	// snapshot: a stream that connects mid-run would miss early deltas
	// and skew the latency tail.
	var tr *deltaTracker
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	var subWG sync.WaitGroup
	subErrs := make([]error, nSubs)
	if nSubs > 0 {
		tr = newDeltaTracker()
		var ready sync.WaitGroup
		ready.Add(nSubs)
		for i := 0; i < nSubs; i++ {
			subWG.Add(1)
			go func(i int) {
				defer subWG.Done()
				subErrs[i] = subscriber(subCtx, base, subBuffer, tr, &ready)
			}(i)
		}
		ready.Wait()
	}

	lat := make([][]time.Duration, n)
	errCounts := make([]int, n)
	retryCounts := make([]int, n)
	shedCounts := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			sess := fmt.Sprintf("load-%d", w)
			lo := idBase + 2*w*(writes+2)
			lat[w] = make([]time.Duration, 0, writes)
			for i := 0; i < writes; i++ {
				id := lo + i
				stmts := []map[string]any{{
					"op": "insert", "target": "items",
					"row": []any{id, fmt.Sprintf("hot%d", id), 1500},
				}}
				if i > 0 {
					stmts = append(stmts, map[string]any{
						"op": "delete", "target": "items",
						"where": []map[string]any{{"col": "iid", "op": "=", "val": id - 1}},
					})
				}
				// Latency spans the whole acked attempt, backoffs included:
				// under shedding the client-observed commit latency is what a
				// real session would see.
				t0 := time.Now()
				if tr != nil {
					tr.preWrite(id, t0)
				}
				r, s, err := execRetry(client, base+"/exec",
					map[string]any{"stmts": stmts, "session": sess}, maxRetries, rng)
				retryCounts[w] += r
				shedCounts[w] += s
				if err != nil {
					errCounts[w]++
					continue
				}
				if tr != nil {
					tr.acked(id, time.Now())
				}
				lat[w] = append(lat[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	// Let in-flight delta events drain to the streams: stop once the
	// sample count goes quiet (or after a hard cap).
	if tr != nil {
		last, lastChange := -1, time.Now()
		for time.Since(lastChange) < 300*time.Millisecond && time.Since(start) < wall+5*time.Second {
			d, _, _ := tr.samples()
			if len(d) != last {
				last, lastChange = len(d), time.Now()
			}
			time.Sleep(20 * time.Millisecond)
		}
		subCancel()
		subWG.Wait()
	}

	after, err := batcherStats(base)
	if err != nil {
		return result{}, err
	}

	var all []time.Duration
	errs, nRetries, nShed := 0, 0, 0
	for w := range lat {
		all = append(all, lat[w]...)
		errs += errCounts[w]
		nRetries += retryCounts[w]
		nShed += shedCounts[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := result{
		Sessions:      n,
		WritesPerSess: writes,
		Requests:      len(all),
		Errors:        errs,
		Retries:       nRetries,
		Shed:          nShed,
		WallMS:        float64(wall.Microseconds()) / 1e3,
		Flushes:       after.Flushes - bs.Flushes,
		Admitted:      after.Admitted - bs.Admitted,
		CoalescedRows: after.CoalescedRows - bs.CoalescedRows,
	}
	if len(all) > 0 {
		res.ThroughputRPS = float64(len(all)) / wall.Seconds()
		res.P50us = float64(pct(all, 0.50).Microseconds())
		res.P95us = float64(pct(all, 0.95).Microseconds())
		res.P99us = float64(pct(all, 0.99).Microseconds())
	}
	if res.Flushes > 0 {
		res.TxnsPerFlush = float64(res.Admitted) / float64(res.Flushes)
	}
	if tr != nil {
		delivery, e2e, resyncs := tr.samples()
		sort.Slice(delivery, func(i, j int) bool { return delivery[i] < delivery[j] })
		sort.Slice(e2e, func(i, j int) bool { return e2e[i] < e2e[j] })
		res.Subscribers = nSubs
		res.DeltaSamples = len(delivery)
		res.SubResyncs = resyncs
		if len(delivery) > 0 {
			res.DeliveryP50us = float64(pct(delivery, 0.50).Microseconds())
			res.DeliveryP95us = float64(pct(delivery, 0.95).Microseconds())
			res.DeliveryP99us = float64(pct(delivery, 0.99).Microseconds())
			res.E2EP50us = float64(pct(e2e, 0.50).Microseconds())
			res.E2EP95us = float64(pct(e2e, 0.95).Microseconds())
			res.E2EP99us = float64(pct(e2e, 0.99).Microseconds())
		}
		for _, err := range subErrs {
			if err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "birdsload: subscriber:", err)
			}
		}
		fmt.Printf("  cdc: subscribers=%d samples=%d delivery p50=%.0fµs p95=%.0fµs p99=%.0fµs  e2e p50=%.0fµs  resyncs=%d\n",
			nSubs, res.DeltaSamples, res.DeliveryP50us, res.DeliveryP95us, res.DeliveryP99us, res.E2EP50us, resyncs)
	}
	return res, nil
}

func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// setupFixture creates the DML-maintenance fixture over the wire: the
// items base table and the luxury selection view (registered with its
// expected get, skipping oracle validation — this is a load fixture).
func setupFixture(base string) error {
	client := &http.Client{}
	if err := post(client, base+"/ddl", map[string]any{
		"source": "source items(iid:int, iname:string, price:int).",
	}, nil); err != nil {
		return err
	}
	return post(client, base+"/ddl", map[string]any{
		"view": `
source items(iid:int, iname:string, price:int).
view luxury(iid:int, iname:string, price:int).
-items(I,N,P) :- items(I,N,P), P > 1000, not luxury(I,N,P).
`,
		"incremental":     true,
		"skip_validation": true,
		"expected_get":    []string{"luxury(I,N,P) :- items(I,N,P), P > 1000."},
	}, nil)
}

func post(client *http.Client, url string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	code, _, data, err := doPost(client, url, buf)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, code, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// doPost issues one POST and reports the status code, the Retry-After
// header, and the body. err is non-nil only for transport failures.
func doPost(client *http.Client, url string, buf []byte) (int, string, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), data, nil
}

// execRetry posts a write with a transient-failure budget: transport errors
// (connection reset, refused) and 503 (the server shedding load or riding
// out a degraded spell) are retried with capped exponential backoff plus
// jitter, sleeping at least Retry-After when the server names a delay. Any
// other non-200 is permanent. Returns the retries consumed and the 503s
// absorbed alongside the final error, so the sweep can report how hard the
// server pushed back even when every write eventually lands.
func execRetry(client *http.Client, url string, body any, maxRetries int, rng *rand.Rand) (retries, shed int, err error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	backoff := 5 * time.Millisecond
	const maxBackoff = 500 * time.Millisecond
	for attempt := 0; ; attempt++ {
		code, retryAfter, data, err := doPost(client, url, buf)
		if err == nil {
			if code == http.StatusOK {
				return retries, shed, nil
			}
			if code != http.StatusServiceUnavailable {
				return retries, shed, fmt.Errorf("%s: HTTP %d: %s", url, code, bytes.TrimSpace(data))
			}
			shed++
		}
		if attempt == maxRetries {
			if err == nil {
				err = fmt.Errorf("%s: HTTP %d after %d retries: %s", url, code, retries, bytes.TrimSpace(data))
			}
			return retries, shed, err
		}
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		if s, perr := strconv.Atoi(strings.TrimSpace(retryAfter)); perr == nil && s > 0 {
			if ra := time.Duration(s) * time.Second; ra > sleep {
				sleep = ra
			}
		}
		time.Sleep(sleep)
		retries++
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

type batcherCounters struct {
	Flushes       uint64 `json:"flushes"`
	Admitted      uint64 `json:"admitted"`
	CoalescedRows uint64 `json:"coalesced_rows"`
}

func batcherStats(base string) (batcherCounters, error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return batcherCounters{}, err
	}
	defer resp.Body.Close()
	var payload struct {
		Batch batcherCounters `json:"batcher"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return batcherCounters{}, err
	}
	return payload.Batch, nil
}

func waitHealthy(base string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s", base, d)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
