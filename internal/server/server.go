// Package server is the network front door of the engine: an HTTP/JSON API
// exposing DML, queries, DDL and admin over a birds database, with every
// client session multiplexed onto ONE group-commit batcher — the
// architecture the write pipeline was built for: N concurrent writers'
// transactions coalesce into single view-maintenance passes and (with
// durability enabled) single WAL fsyncs.
//
// Endpoints:
//
//	POST /exec        run one DML transaction ({"sql": "..."} or {"stmts": [...]})
//	POST /query       snapshot one or more relations atomically ({"rels": [...]})
//	GET  /views/NAME  snapshot one view
//	POST /ddl         create a base table or an updatable view
//	POST /session     mint a session id (optional; sessions are bookkeeping)
//	POST /flush       flush the pending group-commit batch
//	POST /checkpoint  write a snapshot checkpoint and truncate the WAL
//	GET  /stats       server + batcher + engine + WAL counters
//	GET  /healthz     liveness probe
//
// Consistency contract, as seen over HTTP: a 200 from POST /exec means the
// transaction's batch has FLUSHED — its effects are visible to every
// subsequent read and, with durability enabled, its WAL record is on disk,
// fsynced per the configured mode. Flushes apply whole batches atomically
// under the engine write lock, so any single response (including a
// multi-relation POST /query) observes batch boundaries only: no reader
// ever sees a torn batch, and a view in a response always agrees exactly
// with the base tables in the same response. A 5xx (flush failure, timeout)
// means the transaction is INDETERMINATE: it was not acknowledged, but it
// may still commit with a later flush retry, or — when its WAL record was
// written but not synced — be recovered on restart.
//
// Two sequence numbers appear in replies. "lsn" (on /exec and /flush) is
// the engine's commit seq: one number per visibility point, equal to the
// WAL LSN, the CDC seq of /stats and stream events, and /checkpoint's lsn;
// recovery resumes it across restarts. "seq" (on /exec and /flush) is the
// group-commit handle's admission order: replaying acknowledged
// transactions in seq order reproduces the state, but it restarts at 1
// with every process.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"birds/internal/cdc"
	"birds/internal/datalog"
	"birds/internal/engine"
	"birds/internal/wal"
)

// Config configures a Server.
type Config struct {
	// BatchSize is the group-commit size trigger (Batcher MaxTxns):
	// 0 selects engine.DefaultBatchSize, 1 gives an unbatched server
	// (every transaction flushes immediately — the baseline birdsload's
	// acceptance ratio compares against), negative disables the size
	// trigger entirely.
	BatchSize int
	// FlushInterval bounds the commit latency of a partially filled
	// batch: a non-empty batch flushes this long after its first
	// admission. 0 selects DefaultFlushInterval — with BatchSize > 1 an
	// admitted transaction's acknowledgment waits for its flush, so some
	// interval trigger is required for low-traffic liveness.
	FlushInterval time.Duration
	// RequestTimeout bounds each request, including the wait for the
	// transaction's flush. 0 selects DefaultRequestTimeout; negative
	// disables the timeout.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies. 0 selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxInflight bounds concurrently admitted data-plane requests (exec,
	// query, views, ddl, checkpoint): when the bound is reached further
	// requests are shed immediately with 503 + Retry-After instead of
	// piling onto the engine locks. Admin and liveness endpoints (/stats,
	// /healthz, /flush, /reopen) are never shed — they are how operators
	// observe and clear an overload. 0 selects DefaultMaxInflight;
	// negative disables shedding.
	MaxInflight int
	// Heartbeat is the idle-ping interval of GET /subscribe streams: a
	// stream with no events for this long emits a "ping" line carrying
	// the hub's current sequence number. 0 selects DefaultHeartbeat;
	// negative disables pings.
	Heartbeat time.Duration
}

// Defaults for the zero Config.
const (
	DefaultFlushInterval  = 2 * time.Millisecond
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBodyBytes   = 1 << 20
	DefaultMaxInflight    = 256
	DefaultHeartbeat      = 5 * time.Second
)

// Server serves one database over HTTP. Create it with New, mount
// Handler(), and Drain() it on shutdown.
type Server struct {
	db  *engine.DB
	cfg Config
	mux *http.ServeMux

	// bt is the group-commit handle. Atomic because POST /reopen retires
	// the degraded handle and installs a fresh one while requests are in
	// flight; every request loads it once and uses that snapshot.
	bt atomic.Pointer[engine.Batcher]
	// reopenMu serializes POST /reopen (discard batcher, recover, swap).
	reopenMu sync.Mutex

	// inflight is the admission semaphore (nil = unlimited): a slot is
	// held for the duration of each data-plane request; when none is free
	// the request is shed with 503 + Retry-After.
	inflight chan struct{}

	sessions *sessionRegistry
	start    time.Time

	requests atomic.Uint64
	execs    atomic.Uint64
	queries  atomic.Uint64
	errs     atomic.Uint64
	shed     atomic.Uint64

	// Subscription streams (GET /subscribe): live gauge and lifetime
	// total. streamClose ends every open stream at shutdown —
	// http.Server.Shutdown waits for handlers, and a subscription handler
	// never returns on its own.
	streamsActive atomic.Int64
	streamsTotal  atomic.Uint64
	streamClose   chan struct{}
	streamOnce    sync.Once

	drainOnce sync.Once
	drainErr  error
}

// New builds a server over db. The server owns an independent group-commit
// handle (db.Batch) — db.Exec elsewhere keeps its configured behavior.
func New(db *engine.DB, cfg Config) *Server {
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	s := &Server{
		db:          db,
		cfg:         cfg,
		mux:         http.NewServeMux(),
		sessions:    newSessionRegistry(),
		start:       time.Now(),
		streamClose: make(chan struct{}),
	}
	s.bt.Store(db.Batch(engine.BatchOptions{MaxTxns: cfg.BatchSize, FlushInterval: cfg.FlushInterval}))
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	gated := func(h http.HandlerFunc) http.HandlerFunc { return s.admit(h) }
	s.mux.HandleFunc("POST /exec", gated(s.handleExec))
	s.mux.HandleFunc("POST /query", gated(s.handleQuery))
	s.mux.HandleFunc("GET /views/{name}", gated(s.handleView))
	s.mux.HandleFunc("POST /ddl", gated(s.handleDDL))
	s.mux.HandleFunc("POST /session", gated(s.handleSession))
	s.mux.HandleFunc("POST /checkpoint", gated(s.handleCheckpoint))
	// Subscription streams are long-lived: they hold no admission slot
	// (the semaphore is for request-scoped data-plane work) and are exempt
	// from the request timeout (Handler checks the path).
	s.mux.HandleFunc("GET /subscribe/{name}", s.handleSubscribe)
	s.mux.HandleFunc("POST /flush", s.handleFlush)
	s.mux.HandleFunc("POST /reopen", s.handleReopen)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// admit wraps a data-plane handler with the admission semaphore: the
// request holds one slot end to end (including its wait for the batch
// flush), and when every slot is taken the request is shed immediately —
// a fast 503 with Retry-After beats a slow timeout, and keeps a queue
// from building in front of the engine locks.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				s.writeErrorCode(w, http.StatusServiceUnavailable, codeOverloaded,
					fmt.Errorf("server: overloaded (%d requests in flight); retry later", cap(s.inflight)))
				return
			}
		}
		h(w, r)
	}
}

// Handler returns the server's HTTP handler: the route mux wrapped with
// the request counter, the body-size cap and the request timeout.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		if s.cfg.RequestTimeout > 0 && !strings.HasPrefix(r.URL.Path, "/subscribe/") {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Batcher exposes the server's group-commit handle (tests, stats).
func (s *Server) Batcher() *engine.Batcher { return s.bt.Load() }

// Drain is the graceful-shutdown tail, run after the HTTP listener has
// stopped accepting and in-flight requests have finished: it flushes and
// closes the batcher (every staged transaction commits), then writes a
// final checkpoint when durability is enabled. When the engine is in
// read-only degraded mode the staged batch cannot flush — it is discarded
// (it was never acknowledged) and the degradation error is reported.
// Idempotent.
// DisconnectSubscribers ends every open GET /subscribe stream. Call it
// before http.Server.Shutdown — Shutdown waits for in-flight handlers,
// and a subscription handler never returns while its client stays
// connected. Idempotent; Drain calls it too.
func (s *Server) DisconnectSubscribers() {
	s.streamOnce.Do(func() { close(s.streamClose) })
}

func (s *Server) Drain() error {
	s.drainOnce.Do(func() {
		s.DisconnectSubscribers()
		bt := s.bt.Load()
		if roErr := s.db.ReadOnly(); roErr != nil {
			bt.Discard(roErr)
			s.drainErr = roErr
			return
		}
		s.drainErr = bt.Close()
		if s.db.Durable() {
			if err := s.db.Checkpoint(); err != nil && s.drainErr == nil {
				s.drainErr = err
			}
		}
	})
	return s.drainErr
}

// --- response helpers -------------------------------------------------------

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorResponse struct {
	OK            bool   `json:"ok"`
	Error         string `json:"error"`
	Indeterminate bool   `json:"indeterminate,omitempty"`
	// Code classifies machine-actionable failures: "read_only" (the
	// engine degraded after a storage failure; writes fail until
	// POST /reopen succeeds) and "overloaded" (shed by the admission
	// limiter; honor Retry-After).
	Code string `json:"code,omitempty"`
}

// Machine-actionable error codes carried in errorResponse.Code.
const (
	codeReadOnly   = "read_only"
	codeOverloaded = "overloaded"
)

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.errs.Add(1)
	if errors.Is(err, engine.ErrReadOnly) {
		// A degraded engine rejects every write deterministically: not a
		// client error and not indeterminate — surface it as typed 503 no
		// matter which handler hit it.
		s.writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: err.Error(), Code: codeReadOnly})
		return
	}
	s.writeJSON(w, code, errorResponse{Error: err.Error(), Indeterminate: code >= 500})
}

func (s *Server) writeErrorCode(w http.ResponseWriter, code int, errCode string, err error) {
	s.errs.Add(1)
	s.writeJSON(w, code, errorResponse{Error: err.Error(), Code: errCode})
}

// decodeBody decodes a JSON request body into v, rejecting trailing
// garbage. Errors are client errors: 400, or 413 when the body-size cap
// tripped.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if err == nil {
		if trailing := dec.Decode(new(json.RawMessage)); trailing == io.EOF {
			return true
		}
		err = fmt.Errorf("server: trailing data after JSON body")
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("server: request body exceeds %d bytes", tooLarge.Limit))
		return false
	}
	s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %w", err))
	return false
}

// sessionOf resolves the request's session (header first, then the
// optional body field already decoded by the caller).
func (s *Server) sessionOf(r *http.Request, bodyID string) *session {
	id := r.Header.Get("X-Birds-Session")
	if id == "" {
		id = bodyID
	}
	return s.sessions.get(id)
}

// --- /exec ------------------------------------------------------------------

type execRequest struct {
	SQL     string     `json:"sql,omitempty"`
	Stmts   []stmtJSON `json:"stmts,omitempty"`
	Session string     `json:"session,omitempty"`
}

type execResponse struct {
	OK      bool   `json:"ok"`
	Seq     uint64 `json:"seq"` // admission order (restarts with the process)
	LSN     uint64 `json:"lsn"` // commit seq of the visibility point (engine.Commit.Seq)
	Pending int    `json:"pending"`
}

// handleExec runs one DML transaction through the group-commit pipeline
// and acknowledges it only after its batch has flushed (see the package
// consistency contract). The response's seq is the transaction's position
// in the server's serialization (admission) order; its lsn is the commit
// seq of the flush that made it visible.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	s.execs.Add(1)
	var req execRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if sess := s.sessionOf(r, req.Session); sess != nil {
		sess.touch(true)
	}

	var stmts []engine.Statement
	switch {
	case req.SQL != "" && len(req.Stmts) > 0:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf(`server: give "sql" or "stmts", not both`))
		return
	case req.SQL != "":
		parsed, err := engine.ParseSQL(req.SQL)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		stmts = parsed
	case len(req.Stmts) > 0:
		for _, sj := range req.Stmts {
			st, err := decodeStatement(sj)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, err)
				return
			}
			stmts = append(stmts, st)
		}
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf(`server: empty transaction (need "sql" or "stmts")`))
		return
	}
	for _, st := range stmts {
		if decl := s.db.Decl(st.Target); decl != nil {
			if err := typeCheckStatement(decl, st); err != nil {
				s.writeError(w, http.StatusBadRequest, err)
				return
			}
		}
	}

	bt := s.bt.Load()
	seq, commit, err := bt.ExecAsync(stmts...)
	if err != nil {
		// Rejected at admission: nothing was staged, the transaction
		// definitively did not happen. A degraded engine makes that a
		// typed 503 (writeError detects ErrReadOnly); anything else is a
		// client error.
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	select {
	case <-commit.Done():
		if cerr := commit.Err(); cerr != nil {
			// The flush failed (WAL append error) and the engine is now in
			// read-only degraded mode. When the batch's record never reached
			// the log whole, the transaction did not commit. When it was
			// written in full and only its fsync failed, recovery (a
			// restart or POST /reopen) may replay it: the outcome is unknown.
			if errors.Is(cerr, wal.ErrOutcomeUnknown) {
				s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server: commit outcome unknown: %w", cerr))
				return
			}
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server: commit failed: %w", cerr))
			return
		}
	case <-r.Context().Done():
		s.writeError(w, http.StatusGatewayTimeout, fmt.Errorf("server: timed out waiting for the batch flush (transaction admitted; it may still commit)"))
		return
	}
	s.writeJSON(w, http.StatusOK, execResponse{OK: true, Seq: seq, LSN: commit.Seq(), Pending: bt.Pending()})
}

// --- /query and /views/{name} ----------------------------------------------

type queryRequest struct {
	Rel     string   `json:"rel,omitempty"`
	Rels    []string `json:"rels,omitempty"`
	Session string   `json:"session,omitempty"`
}

type queryResponse struct {
	OK        bool           `json:"ok"`
	Relations []relationJSON `json:"relations"`
}

// handleQuery snapshots one or more relations under a single lock
// acquisition — the multi-relation form is atomic across the requested
// relations, which is what the torn-batch checker polls.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if sess := s.sessionOf(r, req.Session); sess != nil {
		sess.touch(false)
	}
	names := req.Rels
	if req.Rel != "" {
		names = append([]string{req.Rel}, names...)
	}
	if len(names) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf(`server: query needs "rel" or "rels"`))
		return
	}
	rels, err := s.db.GetAll(names...)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	resp := queryResponse{OK: true}
	for _, n := range names {
		resp.Relations = append(resp.Relations, encodeRelation(n, rels[n]))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleView snapshots one registered view.
func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	name := r.PathValue("name")
	if !s.db.IsView(name) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: unknown view %q", name))
		return
	}
	rel, err := s.db.Get(name)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, queryResponse{OK: true, Relations: []relationJSON{encodeRelation(name, rel)}})
}

// --- /ddl -------------------------------------------------------------------

type ddlRequest struct {
	// Source holds "source name(col:type, ...)." declarations; every
	// declared relation becomes a base table.
	Source string `json:"source,omitempty"`
	// View holds a putback program; the declared view is registered with
	// its strategy as the INSTEAD OF trigger.
	View        string `json:"view,omitempty"`
	Incremental bool   `json:"incremental,omitempty"`
	// SkipValidation trusts the strategy without running Algorithm 1;
	// ExpectedGet (one rule per entry) is then required.
	SkipValidation bool     `json:"skip_validation,omitempty"`
	ExpectedGet    []string `json:"expected_get,omitempty"`
	Session        string   `json:"session,omitempty"`
}

type ddlResponse struct {
	OK      bool     `json:"ok"`
	Created []string `json:"created"`
}

// handleDDL creates base tables or an updatable view. The pending batch is
// flushed first, so the DDL sees (and its initial materialization covers)
// every admitted transaction.
func (s *Server) handleDDL(w http.ResponseWriter, r *http.Request) {
	var req ddlRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if sess := s.sessionOf(r, req.Session); sess != nil {
		sess.touch(true)
	}
	if (req.Source == "") == (req.View == "") {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf(`server: give exactly one of "source" or "view"`))
		return
	}
	if err := s.bt.Load().Flush(); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	var created []string
	if req.Source != "" {
		prog, err := datalog.Parse(req.Source)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if len(prog.Sources) == 0 || len(prog.Rules) > 0 || prog.View != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf(`server: "source" must hold only source declarations`))
			return
		}
		for _, d := range prog.Sources {
			if err := s.db.CreateTable(d); err != nil {
				s.writeError(w, http.StatusBadRequest, err)
				return
			}
			created = append(created, d.Name)
		}
	} else {
		opts := engine.ViewOptions{Incremental: req.Incremental, SkipValidation: req.SkipValidation}
		for _, g := range req.ExpectedGet {
			rule, err := datalog.ParseRule(g)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad expected_get rule %q: %w", g, err))
				return
			}
			opts.ExpectedGet = append(opts.ExpectedGet, rule)
		}
		v, err := s.db.CreateView(req.View, opts)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		created = append(created, v.Decl.Name)
	}
	s.writeJSON(w, http.StatusOK, ddlResponse{OK: true, Created: created})
}

// --- sessions and admin -----------------------------------------------------

type sessionResponse struct {
	OK bool   `json:"ok"`
	ID string `json:"id"`
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.create()
	s.writeJSON(w, http.StatusOK, sessionResponse{OK: true, ID: sess.ID})
}

type flushResponse struct {
	OK      bool   `json:"ok"`
	Flushed int    `json:"flushed"`
	Seq     uint64 `json:"seq"` // admission order of the last admitted transaction
	LSN     uint64 `json:"lsn"` // commit seq after the flush (= /stats cdc.seq)
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	bt := s.bt.Load()
	pending := bt.Pending()
	if err := bt.Flush(); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.writeJSON(w, http.StatusOK, flushResponse{OK: true, Flushed: pending, Seq: bt.Stats().Seq, LSN: s.db.CDCStats().Seq})
}

type checkpointResponse struct {
	OK  bool   `json:"ok"`
	LSN uint64 `json:"lsn"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.db.Durable() {
		s.writeError(w, http.StatusConflict, fmt.Errorf("server: durability is not enabled"))
		return
	}
	// Flush first so the checkpoint covers every acknowledged transaction.
	if err := s.bt.Load().Flush(); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err := s.db.Checkpoint(); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, checkpointResponse{OK: true, LSN: s.db.LastLSN()})
}

type reopenResponse struct {
	OK  bool   `json:"ok"`
	LSN uint64 `json:"lsn"`
}

// handleReopen clears read-only degraded mode: it retires the degraded
// group-commit handle (its staged transactions were never acknowledged),
// re-runs recovery from the durability directory via DB.Reopen, and
// installs a fresh handle. 409 when the engine is not degraded; on a
// failed recovery (the disk is still hostile) the server stays degraded
// and the call can be retried. Never shed by the admission limiter — this
// is how an operator gets the server back.
func (s *Server) handleReopen(w http.ResponseWriter, r *http.Request) {
	s.reopenMu.Lock()
	defer s.reopenMu.Unlock()
	roErr := s.db.ReadOnly()
	if roErr == nil {
		s.writeError(w, http.StatusConflict, fmt.Errorf("server: engine is not in read-only mode"))
		return
	}
	old := s.bt.Load()
	old.Discard(roErr)
	err := s.db.Reopen()
	// Degraded or not, requests need a live (non-discarded) handle; on a
	// failed reopen its admissions fail fast with the typed read-only
	// error.
	s.bt.Store(s.db.Batch(engine.BatchOptions{MaxTxns: s.cfg.BatchSize, FlushInterval: s.cfg.FlushInterval}))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("server: reopen: %w", err))
		return
	}
	s.writeJSON(w, http.StatusOK, reopenResponse{OK: true, LSN: s.db.LastLSN()})
}

// --- /stats and /healthz ----------------------------------------------------

type statsResponse struct {
	OK     bool                `json:"ok"`
	Server serverStats         `json:"server"`
	Batch  engine.BatcherStats `json:"batcher"`
	Engine engineStats         `json:"engine"`
	WAL    walStats            `json:"wal"`
	CDC    cdcStats            `json:"cdc"`
}

// cdcStats is the subscription hub's slice of GET /stats and GET /healthz:
// the engine-level hub counters plus the server's HTTP stream gauges.
type cdcStats struct {
	cdc.HubStats
	Streams      int64  `json:"streams"`
	StreamsTotal uint64 `json:"streams_total"`
}

func (s *Server) cdcStats() cdcStats {
	return cdcStats{
		HubStats:     s.db.CDCStats(),
		Streams:      s.streamsActive.Load(),
		StreamsTotal: s.streamsTotal.Load(),
	}
}

type serverStats struct {
	UptimeMS       int64          `json:"uptime_ms"`
	Requests       uint64         `json:"requests"`
	Execs          uint64         `json:"execs"`
	Queries        uint64         `json:"queries"`
	Errors         uint64         `json:"errors"`
	Shed           uint64         `json:"shed"`
	QueueDepth     int            `json:"queue_depth"`
	MaxInflight    int            `json:"max_inflight"`
	ReadOnly       bool           `json:"readonly"`
	Sessions       int            `json:"sessions"`
	ActiveSessions int            `json:"active_sessions"`
	SessionDetail  []sessionStats `json:"session_detail,omitempty"`
}

type relationStat struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Rows        int    `json:"rows"`
	Incremental bool   `json:"incremental,omitempty"`
}

type engineStats struct {
	Relations []relationStat `json:"relations"`
}

type walStats struct {
	Durable bool   `json:"durable"`
	LastLSN uint64 `json:"last_lsn"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		OK: true,
		Server: serverStats{
			UptimeMS:    time.Since(s.start).Milliseconds(),
			Requests:    s.requests.Load(),
			Execs:       s.execs.Load(),
			Queries:     s.queries.Load(),
			Errors:      s.errs.Load(),
			Shed:        s.shed.Load(),
			QueueDepth:  len(s.inflight),
			MaxInflight: cap(s.inflight),
			ReadOnly:    s.db.ReadOnly() != nil,
		},
		Batch: s.bt.Load().Stats(),
		WAL:   walStats{Durable: s.db.Durable(), LastLSN: s.db.LastLSN()},
		CDC:   s.cdcStats(),
	}
	detail, active := s.sessions.stats(time.Minute)
	resp.Server.Sessions = len(detail)
	resp.Server.ActiveSessions = active
	if strings.EqualFold(r.URL.Query().Get("sessions"), "1") || strings.EqualFold(r.URL.Query().Get("sessions"), "true") {
		resp.Server.SessionDetail = detail
	}
	infos, err := s.db.Relations()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	for _, info := range infos {
		resp.Engine.Relations = append(resp.Engine.Relations, relationStat{
			Name: info.Name, Kind: info.Kind, Rows: info.Rows, Incremental: info.Incremental,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

type healthzResponse struct {
	OK       bool     `json:"ok"`
	ReadOnly bool     `json:"readonly"`
	CDC      cdcStats `json:"cdc"`
}

// handleHealthz is the liveness probe: 200 as long as the server answers,
// INCLUDING in read-only degraded mode (the process is alive and serving
// reads — restarting it would not help a broken disk). The body carries
// the degraded flag for probes that want to alert on it. Never shed by
// the admission limiter.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, healthzResponse{OK: true, ReadOnly: s.db.ReadOnly() != nil, CDC: s.cdcStats()})
}
