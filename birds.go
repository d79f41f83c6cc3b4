// Package birds is a Go implementation of "Programmable View Update
// Strategies on Relations" (Tran, Kato, Hu — VLDB 2020): updatable
// relational views whose update strategies are programmed in nonrecursive
// Datalog with negation, statically validated for well-behavedness,
// incrementalized, and compiled to SQL.
//
// A view update strategy (a putback program) maps the original source
// database and an updated view to delta relations (+r / -r) on the
// sources:
//
//	src := `
//	source r1(a:int).
//	source r2(a:int).
//	view v(a:int).
//	-r1(X) :- r1(X), not v(X).
//	-r2(X) :- r2(X), not v(X).
//	+r1(X) :- v(X), not r1(X), not r2(X).
//	`
//	strategy, err := birds.Load(src)            // parse + compile
//	result, err := strategy.Validate(nil)       // Algorithm 1; derives get
//	dput, err := strategy.Incrementalize()      // Lemma 5.2 ∂put
//	sql, err := strategy.CompileSQL(result.Get) // CREATE VIEW + trigger
//
// To actually serve updates, register the strategy on the in-memory
// engine:
//
//	db := birds.NewDB()
//	db.CreateTable(...); db.LoadTable(...)
//	db.CreateView(src, birds.ViewOptions{Incremental: true})
//	db.Exec(birds.Insert("v", birds.Int(3)))
package birds

import (
	"fmt"

	"birds/internal/analysis"
	"birds/internal/bench"
	"birds/internal/cdc"
	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/engine"
	"birds/internal/sat"
	"birds/internal/sqlgen"
	"birds/internal/value"
	"birds/internal/wal"
)

// Re-exported language and engine types. The aliases make the full
// functionality of the internal packages available through the public API.
type (
	// Program is a parsed putback program.
	Program = datalog.Program
	// Rule is one Datalog rule or integrity constraint.
	Rule = datalog.Rule
	// RelDecl declares a relation schema.
	RelDecl = datalog.RelDecl
	// Class is the language-fragment classification (LVGN / NR-Datalog).
	Class = analysis.Class
	// ValidationResult is the outcome of Algorithm 1.
	ValidationResult = core.Result
	// ValidationFailure explains a rejected strategy, with a witness.
	ValidationFailure = core.Failure
	// Options configures validation.
	Options = core.Options
	// OracleConfig bounds the satisfiability oracle.
	OracleConfig = sat.Config

	// Value is a typed scalar constant.
	Value = value.Value
	// Tuple is one relation row.
	Tuple = value.Tuple
	// Relation is a set of tuples.
	Relation = value.Relation

	// DB is the in-memory RDBMS with updatable views.
	DB = engine.DB
	// ViewOptions configures DB.CreateView.
	ViewOptions = engine.ViewOptions
	// Statement is a DML statement.
	Statement = engine.Statement
	// Condition is a WHERE conjunct.
	Condition = engine.Condition
	// Assignment is an UPDATE SET clause.
	Assignment = engine.Assignment
	// Batcher is the group-commit write pipeline handle (DB.Batch), the
	// only way to group-commit — DB.Exec always commits directly. Admitted
	// transactions stage their coalesced net deltas and flush as one
	// view-maintenance pass; the owner closes the handle before DB.Close,
	// which flushes no batch. Batcher.ExecWait blocks until the
	// transaction's batch is flushed (the session acknowledgment point
	// cmd/birds-serve is built on), and Batcher.Stats exposes the
	// pipeline's counters.
	Batcher = engine.Batcher
	// BatcherStats is a snapshot of a Batcher's counters: admissions,
	// flushes, coalesced-away rows, and queue depth.
	BatcherStats = engine.BatcherStats
	// Commit is the flush handle of one admitted transaction
	// (Batcher.ExecAsync).
	Commit = engine.Commit
	// BatchOptions configures a Batcher's flush triggers.
	BatchOptions = engine.BatchOptions
	// DurabilityOptions configures DB.EnableDurability: the write-ahead-log
	// directory, the fsync mode, the automatic checkpoint cadence, and the
	// WAL segment rotation threshold.
	DurabilityOptions = engine.DurabilityOptions
	// RecoverStats summarizes a Recover: loaded checkpoint LSN, last
	// replayed LSN, records replayed, and whether a torn tail was skipped.
	RecoverStats = engine.RecoverStats
	// SyncMode selects when the write-ahead log is fsynced.
	SyncMode = wal.SyncMode

	// Subscription is one change-data-capture stream (DB.Subscribe): an
	// initial snapshot event followed by ordered per-visibility-point net
	// delta events, with explicit Resync events on loss — never silent
	// divergence.
	Subscription = cdc.Subscription
	// SubOptions configures a subscription's buffer and slow-consumer
	// policy.
	SubOptions = cdc.SubOptions
	// ChangeEvent is one element of a subscription stream.
	ChangeEvent = cdc.Event
	// CDCStats aggregates the subscription hub's counters.
	CDCStats = cdc.HubStats
)

// Slow-consumer policies for SubOptions.Policy.
const (
	// DropAndResync never delays the write path: a lagging subscriber
	// loses events and receives one explicit Resync.
	DropAndResync = cdc.DropAndResync
	// BlockWithDeadline delays the publisher up to SubOptions.BlockDeadline
	// before falling back to DropAndResync.
	BlockWithDeadline = cdc.BlockWithDeadline
)

// ApplyChange folds one subscription event into a client-side mirror
// relation and returns the new mirror (cdc.ApplyEvent).
var ApplyChange = cdc.ApplyEvent

// Write-ahead-log fsync modes.
const (
	// SyncOff never fsyncs the log (crash durability up to the OS page
	// cache only; the record stream is still torn-tail safe).
	SyncOff = wal.SyncOff
	// SyncOnCommit fsyncs every record — full per-transaction durability.
	SyncOnCommit = wal.SyncOnCommit
	// SyncOnFlush fsyncs group-commit flush records only, amortizing one
	// fsync across the whole batch; direct transactions ride along with the
	// next synced record.
	SyncOnFlush = wal.SyncOnFlush
)

// DefaultCheckpointEvery is the automatic-checkpoint record cadence used
// when DurabilityOptions.CheckpointEvery is 0.
const DefaultCheckpointEvery = engine.DefaultCheckpointEvery

// DefaultSegmentBytes is the WAL segment rotation threshold used when
// DurabilityOptions.SegmentBytes is 0.
const DefaultSegmentBytes = wal.DefaultSegmentBytes

// ErrReadOnly is returned (wrapped) by every write path while the engine is
// in read-only degraded mode after a storage failure; DB.Reopen recovers
// from disk and restores writes. Test with errors.Is.
var ErrReadOnly = engine.ErrReadOnly

// ParseSyncMode parses "off", "commit" or "flush" into a SyncMode.
var ParseSyncMode = wal.ParseSyncMode

// HasDurableState reports whether dir holds recoverable durable state:
// true means open it with Recover, false means DB.EnableDurability is safe.
var HasDurableState = engine.HasDurableState

// Recover rebuilds a database from the durable state in dir: latest valid
// checkpoint, WAL-tail replay (skipping a torn trailing record, erroring on
// mid-log corruption), and view re-derivation from base state. The returned
// engine has durability re-enabled on dir.
func Recover(dir string) (*DB, RecoverStats, error) { return engine.Recover(dir) }

// DefaultBatchSize is the batch-size trigger used when
// BatchOptions.MaxTxns is 0.
const DefaultBatchSize = engine.DefaultBatchSize

// Value constructors.
var (
	// Int builds an integer value.
	Int = value.Int
	// Float builds a floating-point value.
	Float = value.Float
	// Str builds a string value.
	Str = value.Str
	// Bool builds a boolean value.
	Bool = value.Bool
)

// DML statement constructors.
var (
	// Insert builds an INSERT statement.
	Insert = engine.Insert
	// Delete builds a DELETE statement.
	Delete = engine.Delete
	// Update builds an UPDATE statement.
	Update = engine.Update
	// Eq builds an equality WHERE condition.
	Eq = engine.Eq
)

// NewDB creates an empty in-memory database.
func NewDB() *DB { return engine.NewDB() }

// Parse parses a putback program: source/view declarations followed by
// update rules and integrity constraints.
func Parse(src string) (*Program, error) { return datalog.Parse(src) }

// ParseRules parses newline-separated Datalog rules (e.g. an expected view
// definition).
func ParseRules(src string) ([]*Rule, error) { return bench.ParseGetRules(src) }

// Strategy is a loaded, compiled view update strategy.
type Strategy struct {
	pb *core.Putback
}

// Load parses and compiles a putback program, checking its structural
// obligations (declared view, delta heads on declared sources, arities,
// safety, nonrecursion).
func Load(src string) (*Strategy, error) {
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	return LoadProgram(prog)
}

// LoadProgram is Load for an already-parsed program.
func LoadProgram(prog *Program) (*Strategy, error) {
	pb, err := core.NewPutback(prog)
	if err != nil {
		return nil, err
	}
	return &Strategy{pb: pb}, nil
}

// Program returns the underlying program.
func (s *Strategy) Program() *Program { return s.pb.Prog }

// Class reports the language-fragment classification of the strategy.
func (s *Strategy) Class() Class { return s.pb.Class }

// Validate runs Algorithm 1 of the paper: well-definedness, existence of a
// view definition satisfying GetPut (confirming expectedGet or deriving
// one), and PutGet. A nil expectedGet asks for derivation. Concurrent
// calls on one Strategy are safe.
func (s *Strategy) Validate(expectedGet []*Rule) (*ValidationResult, error) {
	return core.Validate(s.pb, expectedGet, core.DefaultOptions())
}

// ValidateWith is Validate with explicit options.
func (s *Strategy) ValidateWith(expectedGet []*Rule, opts Options) (*ValidationResult, error) {
	return core.Validate(s.pb, expectedGet, opts)
}

// Incrementalize derives the ∂put program of Section 5 (Lemma 5.2 plus
// delta-rule unfolding); it requires the linear-view restriction.
func (s *Strategy) Incrementalize() (*Program, error) {
	return core.Incrementalize(s.pb.Prog)
}

// GeneralIncremental is the Appendix C incremental pipeline, which also
// covers strategies outside LVGN-Datalog.
type GeneralIncremental = core.GeneralIncremental

// IncrementalizeGeneral derives the general incremental pipeline of
// Appendix C: the program is binarized (Lemma C.1), and Init/Apply maintain
// the binarized program by counted IVM, so a view delta propagates through
// every intermediate relation to the source deltas. Counting computes what
// Figure 7's rewrite rules derive; the rules themselves are not evaluated.
// Unlike Incrementalize, this works for any NR-Datalog¬ strategy.
func (s *Strategy) IncrementalizeGeneral() (*GeneralIncremental, error) {
	return core.NewGeneralIncremental(s.pb.Prog)
}

// Binarize exposes Lemma C.1: an equivalent program in which every IDB
// relation is defined from at most two other relations.
func Binarize(prog *Program) (*Program, error) { return core.Binarize(prog) }

// CompileSQL compiles the strategy and its view definition to a
// PostgreSQL-dialect SQL program: CREATE VIEW plus an INSTEAD OF trigger.
func (s *Strategy) CompileSQL(getRules []*Rule) (string, error) {
	if getRules == nil {
		return "", fmt.Errorf("birds: CompileSQL needs the view definition; run Validate first")
	}
	return sqlgen.New(s.pb.Prog).Compile(getRules)
}

// CompileIncrementalSQL compiles the incrementalized trigger program (the
// §6.2 artifact): the same INSTEAD OF scaffolding, with delta queries that
// read the view-delta temp tables instead of the full view. It requires
// the strategy to be incrementalizable (LVGN's linear view).
func (s *Strategy) CompileIncrementalSQL() (string, error) {
	dput, err := core.Incrementalize(s.pb.Prog)
	if err != nil {
		return "", err
	}
	return sqlgen.New(s.pb.Prog).CompileIncrementalTrigger(dput)
}

// LawsConfig bounds CheckLaws.
type LawsConfig = core.LawsConfig

// LawViolation is a concrete GetPut/PutGet counterexample from CheckLaws.
type LawViolation = core.LawViolation

// CheckLaws property-tests the round-tripping laws of the paper's §2.2
// (GetPut and PutGet) on random instances — a complement to Validate's
// adversarial small-scope search. It returns a *LawViolation carrying the
// witness instance when a law fails.
func (s *Strategy) CheckLaws(getRules []*Rule, cfg LawsConfig) error {
	return core.CheckLaws(s.pb, getRules, cfg)
}
