package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"birds/internal/bench"
	"birds/internal/engine"
	"birds/internal/value"
	"birds/internal/wal"
)

// commitBase is the commit pipeline's base size: rows of the DML fixture's
// items table (plus its primed hot window), which every automatic
// checkpoint snapshots.
const commitBase = 20000

// commitBatch is the group-commit size trigger, the shipped default.
const commitBatch = engine.DefaultBatchSize

// commitFx is a durable DML fixture with its WAL directory.
type commitFx struct {
	db  *engine.DB
	bt  *engine.Batcher
	dir string
}

func setupCommit(cfg config, tag string, sync wal.SyncMode) (*commitFx, error) {
	dir, err := os.MkdirTemp(cfg.out, "wal-"+tag+"-")
	if err != nil {
		return nil, err
	}
	db, bt, err := bench.SetupBatchedDMLDurableOpts(commitBase, commitBatch, cfg.seed,
		engine.DurabilityOptions{Dir: dir, Sync: sync})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &commitFx{db: db, bt: bt, dir: dir}, nil
}

func (fx *commitFx) release() {
	fx.bt.Close()
	fx.db.Close()
	os.RemoveAll(fx.dir)
}

// windowStmts is transaction i (i >= 1) of the DML fixture's window stream
// at base size base: insert a fresh hot item at the given price and delete
// the item that left the primed hot window, so no insert and delete cancel
// inside a batch. The commit stream and the served writes are this stream.
func windowStmts(base, i, price int) []engine.Statement {
	id := base + bench.BatchedHotWindow + i
	return []engine.Statement{
		engine.Insert("items", value.Int(int64(id)), value.Str(fmt.Sprintf("hot%d", id)), value.Int(int64(price))),
		engine.Delete("items", engine.Eq("iid", value.Int(int64(base+i)))),
	}
}

// commitStream is the window stream at commitBase with seeded prices.
type commitStream struct {
	i   int
	rng *rand.Rand
}

func (s *commitStream) next() []engine.Statement {
	s.i++
	return windowStmts(commitBase, s.i, s.rng.Intn(2000)+1)
}

type pendingTxn struct {
	start time.Time
	c     engine.Commit
}

type commitPhase struct {
	lat         *histogram // ms from admission to durable commit
	wall        time.Duration
	stats       engine.BatcherStats // deltas over the phase
	lsns        uint64
	checkpoints int
}

// commitPass is the pipelined producer: it admits transactions with
// ExecAsync and records each transaction's latency when its batch's flush
// resolves it. The size-triggered flush runs inside the ExecAsync call that
// fills the batch and resolves every queued commit, so at most commitBatch
// transactions are ever unacknowledged; that call's span is engine.flush and
// the others' engine.admit.
func commitPass(fx *commitFx, stream *commitStream, seconds float64, l *lane, rep *report) (commitPhase, error) {
	s0, lsn0 := fx.bt.Stats(), fx.db.LastLSN()
	ph := commitPhase{lat: newHistogram()}
	buf := make([]pendingTxn, 0, commitBatch+1)
	queue := buf
	drain := func(now time.Time) error {
		for len(queue) > 0 {
			select {
			case <-queue[0].c.Done():
			default:
				return nil
			}
			if err := queue[0].c.Err(); err != nil {
				rep.Failed++
				return err
			}
			ph.lat.add(ms(now.Sub(queue[0].start)))
			queue = queue[1:]
		}
		queue = buf // reuse the backing array once every commit resolved
		return nil
	}
	mem := startMemSampler(fx.dir)
	wall, err := timedLoop(seconds, func() (bool, error) {
		txn := stream.next()
		span := "engine.admit"
		if fx.bt.Pending() == commitBatch-1 {
			span = "engine.flush" // this admission fills the batch
		}
		l.newOp()
		l.begin("commit.txn")
		l.begin(span)
		start := time.Now()
		_, c, err := fx.bt.ExecAsync(txn...)
		now := time.Now()
		l.end()
		l.end()
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return false, fmt.Errorf("admission: %w", err)
		}
		queue = append(queue, pendingTxn{start: start, c: c})
		return true, drain(now)
	})
	if err == nil {
		err = fx.bt.Flush()
		if derr := drain(time.Now()); err == nil {
			err = derr
		}
	}
	_, ph.checkpoints = mem.finish()
	ph.wall = wall
	s1 := fx.bt.Stats()
	ph.stats = engine.BatcherStats{
		Admitted: s1.Admitted - s0.Admitted, Flushes: s1.Flushes - s0.Flushes,
		FlushedTxns: s1.FlushedTxns - s0.FlushedTxns, FlushedRows: s1.FlushedRows - s0.FlushedRows,
		CoalescedRows: s1.CoalescedRows - s0.CoalescedRows,
	}
	ph.lsns = fx.db.LastLSN() - lsn0
	return ph, err
}

// checkRecover closes the fixture's log and recovers the directory: every
// relation, the views included, must equal the live database's.
func checkRecover(fx *commitFx, rep *report) (recoverMS float64, err error) {
	names := []string{"items", "owners", "luxury", "owned"}
	live, err := fx.db.GetAll(names...)
	if err != nil {
		return 0, err
	}
	if err := fx.bt.Close(); err != nil {
		return 0, err
	}
	if err := fx.db.Close(); err != nil {
		return 0, err
	}
	start := time.Now()
	rec, st, err := engine.Recover(fx.dir)
	recoverMS = ms(time.Since(start))
	if err != nil {
		rep.check("recover_equals_live", false, "recover: %v", err)
		return recoverMS, nil
	}
	defer rec.Close()
	got, err := rec.GetAll(names...)
	if err != nil {
		return 0, err
	}
	var diff []string
	for _, n := range names {
		if !got[n].Equal(live[n]) {
			diff = append(diff, n)
		}
	}
	rep.check("recover_equals_live", len(diff) == 0,
		"replayed %d WAL records after checkpoint LSN %d; differing relations: %v", st.Replayed, st.CheckpointLSN, diff)
	return recoverMS, nil
}

// commitLayers measures the group-commit pipeline in viewupdate's traced run: the
// commit stream through one pipelined producer with fsync on flush, traced on
// a lane of tr; engine.Recover of its directory, which must reproduce every
// relation; and the same stream with fsync off, whose flush time subtracted
// from the first gives the fsync's share. The flush policy is the size
// trigger alone (commitBatch), so the flush timer that dominates a served
// write does not hide these microsecond costs.
func commitLayers(cfg config, seconds float64, tr *tracer, rep *report) error {
	fx, err := setupCommit(cfg, "commit", wal.SyncOnFlush)
	if err != nil {
		return err
	}
	defer os.RemoveAll(fx.dir)
	ph, err := commitPass(fx, &commitStream{rng: rand.New(rand.NewSource(cfg.seed))}, seconds, tr.lane(), rep)
	if err != nil {
		fx.release()
		return err
	}
	st := tr.stats()
	recMS, err := checkRecover(fx, rep)
	if err != nil {
		return err
	}

	off, err := setupCommit(cfg, "nosync", wal.SyncOff)
	if err != nil {
		return err
	}
	offTr := newTracer()
	_, err = commitPass(off, &commitStream{rng: rand.New(rand.NewSource(cfg.seed))}, seconds/2, offTr.lane(), rep)
	off.release()
	if err != nil {
		return err
	}

	flushMS := meanMS(st, "engine.flush")
	admitMS := meanMS(st, "engine.admit")
	s := ph.stats
	rep.Layer["engine.admit_us"] = admitMS * 1000
	rep.Layer["engine.flush_ms"] = flushMS
	rep.Layer["wal.sync_ms"] = flushMS - meanMS(offTr.stats(), "engine.flush")
	rep.Layer["engine.coalesced_frac"] = float64(s.CoalescedRows) / float64(max(s.FlushedRows+s.CoalescedRows, 1))
	rep.Layer["wal.records_per_ktxn"] = float64(ph.lsns) * 1000 / float64(max(s.Admitted, 1))
	rep.Layer["wal.checkpoints"] = float64(ph.checkpoints)
	rep.Layer["wal.recover_ms"] = recMS
	rep.Layer["commit.op_p50_ms"] = ph.lat.quantile(0.5)
	rep.note("commit pipeline: %d txns in %.1f s (%.0f txn/s), flush policy = size trigger %d, no interval timer, fsync on flush, automatic checkpoint every %d WAL records; %d checkpoints completed",
		s.Admitted, ph.wall.Seconds(), float64(s.Admitted)/ph.wall.Seconds(), commitBatch, engine.DefaultCheckpointEvery, ph.checkpoints)
	rep.note("commit latency decomposition: a transaction waits for the admissions after it in its batch (mean %.1f x %.4f ms) and the flush (%.4f ms); p50 %.4f ms",
		float64(commitBatch-1)/2, admitMS, flushMS, ph.lat.quantile(0.5))
	return nil
}
