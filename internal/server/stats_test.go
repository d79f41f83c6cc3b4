package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"birds/internal/engine"
	"birds/internal/value"
)

// TestStatsJSONKeys pins the key sets of GET /stats and GET /healthz: the
// batcher and hub counters are marshalled straight from the engine and cdc
// structs, so a renamed field or tag there must not silently change the
// wire shape operators and birdsload read.
func TestStatsJSONKeys(t *testing.T) {
	_, ts := startServer(t, Config{})
	cdcKeys := []string{"delivered", "dropped", "max_lag_seqs", "published", "resyncs",
		"seq", "streams", "streams_total", "subscribers"}
	want := map[string]map[string][]string{
		"/stats": {
			"": {"batcher", "cdc", "engine", "ok", "server", "wal"},
			"batcher": {"admitted", "coalesced_rows", "direct", "flushed_rows", "flushed_txns",
				"flushes", "pending", "seq"},
			"cdc":    cdcKeys,
			"engine": {"relations"},
			"server": {"active_sessions", "errors", "execs", "max_inflight", "queries", "queue_depth",
				"readonly", "requests", "sessions", "shed", "uptime_ms"},
			"wal": {"durable", "last_lsn"},
		},
		"/healthz": {
			"":    {"cdc", "ok", "readonly"},
			"cdc": cdcKeys,
		},
	}
	for path, objects := range want {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for obj, keys := range objects {
			m := body
			if obj != "" {
				m = nil
				if err := json.Unmarshal(body[obj], &m); err != nil {
					t.Fatalf("%s %s: %v", path, obj, err)
				}
			}
			got := make([]string, 0, len(m))
			for k := range m {
				got = append(got, k)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, keys) {
				t.Errorf("%s %q keys = %v, want %v", path, obj, got, keys)
			}
		}
	}
}

// TestStatsLeavesStorageUnshared: /stats counts rows without snapshotting
// any relation, so the write after it copies nothing. A snapshot marks the
// relation's storage shared, and the next write to it copies it whole: with
// one snapshot per relation, an items insert after GET /stats copied the
// 10k-row table and its luxury view.
func TestStatsLeavesStorageUnshared(t *testing.T) {
	const n = 10_000
	db := serveFixture(t)
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = value.Tuple{value.Int(int64(i)), value.Str("x"), value.Int(int64(i % 2000))}
	}
	if err := db.LoadTable("items", rows); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	stats := func() map[string]int {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Engine engineStats `json:"engine"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int)
		for _, r := range body.Engine.Relations {
			out[r.Name] = r.Rows
		}
		return out
	}
	// insert adds one luxury item, changing both items and luxury, and
	// returns the bytes it allocated.
	insert := func(id int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := db.Exec(engine.Insert("items", value.Int(id), value.Str("y"), value.Int(1500))); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	if got := stats(); got["items"] != n || got["luxury"] != n/2-n/2000 {
		t.Fatalf("rows before the inserts: %v", got)
	}
	insert(n)
	stats()
	alloc := insert(n + 1)
	t.Logf("insert after /stats allocated %d B", alloc)
	// Copying items alone holds at least one 24-byte tuple header per row.
	if bound := uint64(n * 24 / 10); alloc > bound {
		t.Fatalf("insert after /stats allocated %d B, want < %d B (no relation copied)", alloc, bound)
	}
	if got := stats(); got["items"] != n+2 || got["luxury"] != n/2-n/2000+2 {
		t.Fatalf("rows after the inserts: %v", got)
	}
}
