package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sort"
	"testing"
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
