package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"birds/internal/cdc"
	"birds/internal/value"
)

// GET /subscribe/{name} — live change-data-capture stream over HTTP.
//
// The response is an unbounded application/x-ndjson stream: one JSON
// object per line, flushed per event, SSE-style. The first line is the
// subscription's snapshot; every later line is either a delta ("insert" /
// "delete" rows at one visibility point — a whole group-commit batch is
// one seq), a resync (the subscriber fell behind or the engine fell back
// to a full refresh: the line carries a fresh full snapshot to restart
// the mirror from), or a ping (heartbeat, carrying the current commit seq
// so clients can compute their lag even when idle).
//
// Query parameters: buffer (events, default cdc.DefaultBuffer), policy
// ("drop" or "block"), deadline_ms (block policy's publisher deadline),
// session (session id — the stream counts as one long-lived query).
//
// Subscription streams hold no admission slot (they are long-lived; the
// data-plane semaphore is for request-scoped work) and are exempt from the
// request timeout. They end when the client disconnects or the server
// shuts down.

// streamEvent is one NDJSON line of a subscription stream.
type streamEvent struct {
	Type   string        `json:"type"` // "snapshot" | "delta" | "resync" | "ping" | "error"
	View   string        `json:"view,omitempty"`
	Seq    uint64        `json:"seq"`
	Count  int           `json:"count,omitempty"`
	Rows   [][]wireValue `json:"rows,omitempty"`
	Insert [][]wireValue `json:"insert,omitempty"`
	Delete [][]wireValue `json:"delete,omitempty"`
	Lag    uint64        `json:"lag,omitempty"`
	Error  string        `json:"error,omitempty"`
}

func wireRows(ts []value.Tuple) [][]wireValue {
	if len(ts) == 0 {
		return nil
	}
	out := make([][]wireValue, 0, len(ts))
	for _, t := range ts {
		row := make([]wireValue, len(t))
		for i, v := range t {
			row[i] = wireValue{v}
		}
		out = append(out, row)
	}
	return out
}

// encodeStreamEvent renders a subscription event as a wire line. Snapshot
// rows are sorted (deterministic, like query responses); delta rows keep
// the hub's order.
func encodeStreamEvent(ev cdc.Event, first bool) streamEvent {
	if ev.Resync {
		typ := "resync"
		if first {
			typ = "snapshot"
		}
		return streamEvent{
			Type:  typ,
			View:  ev.View,
			Seq:   ev.Seq,
			Count: ev.Snapshot.Len(),
			Rows:  wireRows(ev.Snapshot.Sorted()),
		}
	}
	return streamEvent{
		Type:   "delta",
		View:   ev.View,
		Seq:    ev.Seq,
		Insert: wireRows(ev.Inserts),
		Delete: wireRows(ev.Deletes),
	}
}

// subOptionsOf parses the stream's subscription options from the query.
func subOptionsOf(r *http.Request) (cdc.SubOptions, error) {
	var opts cdc.SubOptions
	q := r.URL.Query()
	if v := q.Get("buffer"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return opts, fmt.Errorf("server: bad buffer %q", v)
		}
		opts.Buffer = n
	}
	switch p := q.Get("policy"); p {
	case "", "drop":
	case "block":
		opts.Policy = cdc.BlockWithDeadline
	default:
		return opts, fmt.Errorf("server: bad policy %q (want drop or block)", p)
	}
	if v := q.Get("deadline_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return opts, fmt.Errorf("server: bad deadline_ms %q", v)
		}
		opts.BlockDeadline = time.Duration(n) * time.Millisecond
	}
	return opts, nil
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.db.Decl(name) == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: unknown relation %q", name))
		return
	}
	opts, err := subOptionsOf(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("server: streaming unsupported"))
		return
	}
	if sess := s.sessionOf(r, r.URL.Query().Get("session")); sess != nil {
		sess.touch(false)
	}
	// Flush the pending batch first so the snapshot covers every
	// acknowledged transaction (same reason handleDDL flushes).
	if err := s.bt.Load().Flush(); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	sub, err := s.db.Subscribe(name, opts)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer sub.Close()
	s.streamsActive.Add(1)
	s.streamsTotal.Add(1)
	defer s.streamsActive.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// The stream dies with the client connection or at server shutdown
	// (DisconnectSubscribers) — http.Server.Shutdown alone would wait on
	// it forever.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.streamClose:
			cancel()
		case <-ctx.Done():
		}
	}()

	enc := json.NewEncoder(w)
	first := true
	for {
		hctx := ctx
		var hcancel context.CancelFunc
		if s.cfg.Heartbeat > 0 {
			hctx, hcancel = context.WithTimeout(ctx, s.cfg.Heartbeat)
		}
		ev, err := sub.Recv(hctx)
		if hcancel != nil {
			hcancel()
		}
		switch {
		case err == nil:
			if encErr := enc.Encode(encodeStreamEvent(ev, first)); encErr != nil {
				return
			}
			first = false
			flusher.Flush()
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// Idle: heartbeat with the current commit seq and this
			// subscription's lag, so a client can detect it is behind
			// even when its own view is quiet.
			line := streamEvent{Type: "ping", Seq: s.db.CDCStats().Seq, Lag: sub.Stats().LagSeqs}
			if encErr := enc.Encode(line); encErr != nil {
				return
			}
			flusher.Flush()
		case errors.Is(err, cdc.ErrClosed), ctx.Err() != nil:
			return
		default:
			// Resync pull failed (engine error). Surface it on the stream
			// before ending it: the client must know its mirror is stale.
			_ = enc.Encode(streamEvent{Type: "error", View: name, Error: err.Error()})
			return
		}
	}
}
