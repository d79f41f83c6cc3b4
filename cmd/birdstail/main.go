// Command birdstail tails a relation's change-data-capture stream over
// HTTP (GET /subscribe/{view} on a birds-serve instance), printing one
// line per visibility point and optionally maintaining a client-side
// mirror of the relation from the snapshot-then-deltas stream.
//
//	$ birdstail -addr 127.0.0.1:8344 -view luxury -mirror
//	snapshot seq=17 rows=3
//	delta    seq=21 +1 -0 (mirror: 4 rows, lag 0)
//	resync   seq=40 rows=9 (fell behind, restarted from snapshot)
//
// The lag printed with each line is how many commits the stream is
// behind (0 = fully caught up); idle heartbeat pings keep it fresh even
// when the tailed view is quiet.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
)

type wireEvent struct {
	Type   string  `json:"type"`
	View   string  `json:"view"`
	Seq    uint64  `json:"seq"`
	Count  int     `json:"count"`
	Rows   [][]any `json:"rows"`
	Insert [][]any `json:"insert"`
	Delete [][]any `json:"delete"`
	Lag    uint64  `json:"lag"`
	Error  string  `json:"error"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "birdstail:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8344", "birds-serve address")
	view := flag.String("view", "", "relation (table or view) to tail")
	mirror := flag.Bool("mirror", false, "maintain a client-side mirror and print its row count")
	events := flag.Int("events", 0, "exit after this many delta/resync events (0 = run forever)")
	buffer := flag.Int("buffer", 0, "server-side subscription buffer in events (0 = server default)")
	policy := flag.String("policy", "drop", "slow-consumer policy: drop or block")
	quiet := flag.Bool("quiet", false, "suppress ping lines")
	session := flag.String("session", "", "session id to attribute the stream to")
	flag.Parse()
	if *view == "" {
		return fmt.Errorf("-view is required")
	}

	q := url.Values{}
	if *buffer > 0 {
		q.Set("buffer", fmt.Sprint(*buffer))
	}
	if *policy != "" {
		q.Set("policy", *policy)
	}
	if *session != "" {
		q.Set("session", *session)
	}
	u := fmt.Sprintf("http://%s/subscribe/%s", *addr, url.PathEscape(*view))
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := bufio.NewReader(resp.Body).ReadString('\n')
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(body))
	}

	// The mirror is a set of rows keyed by their canonical JSON — the
	// client-side equivalent of the engine's relation, rebuilt from the
	// snapshot and maintained by deltas (and rebuilt again on resync).
	rows := make(map[string]struct{})
	key := func(row []any) string {
		b, _ := json.Marshal(row)
		return string(b)
	}
	rebuild := func(ev wireEvent) {
		clear(rows)
		for _, r := range ev.Rows {
			rows[key(r)] = struct{}{}
		}
	}
	mirrorNote := func() string {
		if !*mirror {
			return ""
		}
		return fmt.Sprintf(" (mirror: %d rows)", len(rows))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	seen := 0
	for sc.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad stream line: %w", err)
		}
		switch ev.Type {
		case "snapshot":
			rebuild(ev)
			fmt.Printf("snapshot seq=%d rows=%d%s\n", ev.Seq, ev.Count, mirrorNote())
		case "resync":
			rebuild(ev)
			seen++
			fmt.Printf("resync   seq=%d rows=%d (fell behind or view rebuilt, restarted from snapshot)%s\n",
				ev.Seq, ev.Count, mirrorNote())
		case "delta":
			for _, r := range ev.Delete {
				delete(rows, key(r))
			}
			for _, r := range ev.Insert {
				rows[key(r)] = struct{}{}
			}
			seen++
			fmt.Printf("delta    seq=%d +%d -%d%s\n", ev.Seq, len(ev.Insert), len(ev.Delete), mirrorNote())
		case "ping":
			if !*quiet {
				fmt.Printf("ping     seq=%d lag=%d\n", ev.Seq, ev.Lag)
			}
		case "error":
			return fmt.Errorf("stream error: %s", ev.Error)
		}
		if *events > 0 && seen >= *events {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended (server shut down?)")
}
