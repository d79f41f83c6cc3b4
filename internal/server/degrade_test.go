package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"birds/internal/engine"
	"birds/internal/value"
	"birds/internal/wal"
)

// Degraded-mode and overload-protection tests: the server must surface a
// storage-poisoned engine as typed 503s on writes while reads, health and
// stats keep answering; POST /reopen must recover in place; and the
// admission limiter must shed excess load with 503 + Retry-After instead
// of queueing without bound.

// startDurableServer boots the serve fixture with durability on a
// fault-injectable filesystem.
func startDurableServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *wal.FaultFS) {
	t.Helper()
	ffs := wal.NewFaultFS(nil, 1)
	db := serveFixture(t)
	if err := db.EnableDurability(engine.DurabilityOptions{
		Dir:  t.TempDir(),
		Sync: wal.SyncOnCommit,
		FS:   ffs,
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, ts, ffs
}

// itemTxn is a single-insert transaction in wire and replay form.
func itemTxn(t *testing.T, iid, price int) wireTxn {
	t.Helper()
	return decodeWireTxn(t, map[string]any{"stmts": []stmtJSON{{
		Op: "insert", Target: "items",
		Row: []wireValue{
			{value.Int(int64(iid))},
			{value.Str(fmt.Sprintf("item-%d", iid))},
			{value.Int(int64(price))},
		},
	}}})
}

// fetchStats decodes the server block of GET /stats.
func fetchStats(t *testing.T, client *http.Client, base string) serverStats {
	t.Helper()
	code, data := postGet(t, client, base+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: HTTP %d: %s", code, data)
	}
	var resp struct {
		Server serverStats `json:"server"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decode stats %q: %v", data, err)
	}
	return resp.Server
}

func decodeError(t *testing.T, data []byte) errorResponse {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("decode error response %q: %v", data, err)
	}
	return er
}

func TestServeReadOnlyDegradation(t *testing.T) {
	_, ts, ffs := startDurableServer(t, Config{BatchSize: 1, FlushInterval: time.Millisecond})
	httpc := ts.Client()
	var acked []wireTxn

	// Reopen on a healthy server is a client error, not a state change.
	if code, data := postJSON(t, httpc, ts.URL+"/reopen", "", map[string]any{}); code != http.StatusConflict {
		t.Fatalf("reopen while healthy: HTTP %d: %s", code, data)
	}

	for i := 0; i < 5; i++ {
		txn := itemTxn(t, i, 1500)
		if code, data := postJSON(t, httpc, ts.URL+"/exec", "", txn.body); code != http.StatusOK {
			t.Fatalf("warmup exec %d: HTTP %d: %s", i, code, data)
		}
		acked = append(acked, txn)
	}

	// The disk turns hostile: the next durable write poisons the log. That
	// first transaction's durability is indeterminate at the client — it
	// must NOT be acknowledged, which is all the oracle needs.
	ffs.Inject(&wal.Rule{Op: wal.OpWrite, Path: "wal-", Err: fmt.Errorf("injected EIO"), Once: true})
	if code, data := postJSON(t, httpc, ts.URL+"/exec", "", itemTxn(t, 100, 1500).body); code == http.StatusOK {
		t.Fatalf("exec through the storage fault was acknowledged: %s", data)
	}

	// Every subsequent write is the deterministic typed 503.
	code, data := postJSON(t, httpc, ts.URL+"/exec", "", itemTxn(t, 101, 1500).body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("exec while degraded: HTTP %d: %s", code, data)
	}
	if er := decodeError(t, data); er.Code != codeReadOnly || er.Indeterminate {
		t.Fatalf("exec while degraded: got %+v, want code=%q indeterminate=false", er, codeReadOnly)
	}

	// Reads, health and stats keep answering.
	rels := fetchRels(t, httpc, ts.URL, "items", "luxury")
	if rels["items"].Len() != 5 {
		t.Fatalf("degraded read: items has %d rows, want 5", rels["items"].Len())
	}
	var hz healthzResponse
	if code, data := postGet(t, httpc, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while degraded: HTTP %d: %s", code, data)
	} else if err := json.Unmarshal(data, &hz); err != nil || !hz.OK || !hz.ReadOnly {
		t.Fatalf("healthz while degraded: %s (err=%v), want ok=true readonly=true", data, err)
	}
	if st := fetchStats(t, httpc, ts.URL); !st.ReadOnly {
		t.Fatalf("stats while degraded: readonly=false, want true")
	}

	// The disk heals; POST /reopen recovers in place and restores writes.
	ffs.Clear()
	code, data = postJSON(t, httpc, ts.URL+"/reopen", "", map[string]any{})
	if code != http.StatusOK {
		t.Fatalf("reopen: HTTP %d: %s", code, data)
	}
	var rr reopenResponse
	if err := json.Unmarshal(data, &rr); err != nil || !rr.OK {
		t.Fatalf("reopen: %s (err=%v)", data, err)
	}
	if code, data := postGet(t, httpc, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after reopen: HTTP %d: %s", code, data)
	} else if err := json.Unmarshal(data, &hz); err != nil || hz.ReadOnly {
		t.Fatalf("healthz after reopen: %s (err=%v), want readonly=false", data, err)
	}
	for i := 200; i < 205; i++ {
		txn := itemTxn(t, i, 500+i)
		if code, data := postJSON(t, httpc, ts.URL+"/exec", "", txn.body); code != http.StatusOK {
			t.Fatalf("exec after reopen: HTTP %d: %s", code, data)
		}
		acked = append(acked, txn)
	}

	// Bit-identical to a serial replay of exactly the acknowledged
	// transactions: the two failed writes left no trace.
	if code, data := postJSON(t, httpc, ts.URL+"/flush", "", map[string]any{}); code != http.StatusOK {
		t.Fatalf("flush: HTTP %d: %s", code, data)
	}
	got := fetchRels(t, httpc, ts.URL, serveRels...)
	ref := serveFixture(t)
	for _, txn := range acked {
		if err := ref.Exec(txn.stmts...); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.GetAll(serveRels...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range serveRels {
		if !got[name].Equal(want[name]) {
			t.Fatalf("%s after reopen: server %v, replay %v", name, got[name].Sorted(), want[name].Sorted())
		}
	}
}

// postGet is postJSON's GET sibling.
func postGet(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf
}

func TestServeOverloadShedding(t *testing.T) {
	// One admission slot, no count trigger, no timer in range: the first
	// exec parks in its flush wait holding the slot until /flush runs.
	srv, ts := startServer(t, Config{
		BatchSize:      -1,
		FlushInterval:  time.Hour,
		RequestTimeout: 30 * time.Second,
		MaxInflight:    1,
	})
	httpc := ts.Client()

	type result struct {
		code int
		data []byte
	}
	first := make(chan result, 1)
	go func() {
		code, data := postJSON(t, httpc, ts.URL+"/exec", "", itemTxn(t, 1, 1500).body)
		first <- result{code, data}
	}()

	// The blocked exec occupies the slot; /stats is never shed, so it can
	// watch the queue fill. The slot is taken before the handler decodes
	// the request, so wait until the transaction is also staged in the
	// batch: a /flush that ran before the admission would flush nothing
	// and leave the exec parked until its request timeout.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := fetchStats(t, httpc, ts.URL)
		if st.QueueDepth == 1 && srv.bt.Load().Pending() == 1 {
			if st.MaxInflight != 1 {
				t.Fatalf("stats: max_inflight = %d, want 1", st.MaxInflight)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first exec never occupied the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Every slot taken: the next data-plane request is shed immediately.
	buf, err := json.Marshal(itemTxn(t, 2, 1500).body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/exec", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	shedData, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed exec: HTTP %d: %s", resp.StatusCode, shedData)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed exec: no Retry-After header")
	}
	if er := decodeError(t, shedData); er.Code != codeOverloaded {
		t.Fatalf("shed exec: got %+v, want code=%q", er, codeOverloaded)
	}
	if st := fetchStats(t, httpc, ts.URL); st.Shed == 0 {
		t.Fatal("stats: shed = 0 after a shed request")
	}

	// /flush is never shed — it is how the parked batch commits. The
	// blocked exec must then return 200.
	if code, data := postJSON(t, httpc, ts.URL+"/flush", "", map[string]any{}); code != http.StatusOK {
		t.Fatalf("flush: HTTP %d: %s", code, data)
	}
	r := <-first
	if r.code != http.StatusOK {
		t.Fatalf("parked exec after flush: HTTP %d: %s", r.code, r.data)
	}
}

// The lsn of an /exec or /flush reply is the engine's commit seq — the
// number /stats reports as cdc.seq and wal.last_lsn — and it continues
// across a restart, while the reply's seq is the group-commit handle's
// admission order and starts again at 1 in the new process.
func TestServeLSNMatchesCommitSeqAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{BatchSize: 1, FlushInterval: time.Millisecond}
	boot := func(db *engine.DB) (*Server, *httptest.Server) {
		srv := New(db, cfg)
		return srv, httptest.NewServer(srv.Handler())
	}
	type reply struct {
		Seq uint64 `json:"seq"`
		LSN uint64 `json:"lsn"`
	}
	post := func(ts *httptest.Server, path string, body any) reply {
		t.Helper()
		code, data := postJSON(t, ts.Client(), ts.URL+path, "", body)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, code, data)
		}
		var r reply
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("decode %s reply %q: %v", path, data, err)
		}
		return r
	}
	commitSeq := func(ts *httptest.Server) (cdcSeq, walLSN uint64) {
		t.Helper()
		code, data := postGet(t, ts.Client(), ts.URL+"/stats")
		if code != http.StatusOK {
			t.Fatalf("stats: HTTP %d: %s", code, data)
		}
		var st struct {
			CDC struct {
				Seq uint64 `json:"seq"`
			} `json:"cdc"`
			WAL struct {
				LastLSN uint64 `json:"last_lsn"`
			} `json:"wal"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decode stats %q: %v", data, err)
		}
		return st.CDC.Seq, st.WAL.LastLSN
	}
	check := func(ts *httptest.Server, label string, r reply, wantLSN uint64) {
		t.Helper()
		cdcSeq, walLSN := commitSeq(ts)
		if r.LSN != wantLSN || cdcSeq != wantLSN || walLSN != wantLSN {
			t.Fatalf("%s: reply lsn %d, /stats cdc.seq %d, wal.last_lsn %d; want all %d", label, r.LSN, cdcSeq, walLSN, wantLSN)
		}
	}

	db := serveFixture(t)
	if err := db.EnableDurability(engine.DurabilityOptions{Dir: dir, Sync: wal.SyncOnCommit}); err != nil {
		t.Fatal(err)
	}
	srv, ts := boot(db)
	for i := 1; i <= 3; i++ {
		r := post(ts, "/exec", itemTxn(t, i, 500*i).body)
		if r.Seq != uint64(i) {
			t.Fatalf("exec %d: admission seq %d, want %d", i, r.Seq, i)
		}
		check(ts, fmt.Sprintf("exec %d", i), r, uint64(i))
	}
	check(ts, "flush", post(ts, "/flush", map[string]any{}), 3)
	ts.Close()
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rec, _, err := engine.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts = boot(rec)
	defer func() {
		ts.Close()
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
		rec.Close()
	}()
	r := post(ts, "/exec", itemTxn(t, 4, 2000).body)
	if r.Seq != 1 {
		t.Fatalf("exec after restart: admission seq %d, want 1 (admission order restarts with the process)", r.Seq)
	}
	check(ts, "exec after restart", r, 4)
}
