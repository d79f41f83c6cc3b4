// Package wal is the crash-consistency substrate of the engine: an
// appending, length-prefixed, CRC32-checksummed log of net row deltas
// (write-ahead log) plus atomic snapshot checkpoints of the base tables and
// the DDL catalog. Together they give the in-memory engine a durability
// contract:
//
//   - every point at which writes become visible — a direct transaction
//     commit, a group-commit batch flush, a bulk load — appends exactly one
//     record *before* the write is acknowledged;
//   - a checkpoint captures base tables and catalog at a log sequence
//     number (LSN), after which fully-covered segments can be removed;
//     materialized views are deliberately NOT checkpointed — recovery
//     re-derives them from base state through the evaluator's counted
//     initialization, which is what makes the IVM layer provably a pure
//     function of the base tables;
//   - recovery loads the latest valid checkpoint and replays the log tail.
//
// The log is split into size-bounded segments named wal-<first LSN>.log
// (16-hex zero-padded, so lexicographic order is LSN order). Appends
// rotate to a fresh segment once the active one crosses the threshold, and
// a checkpoint rotates unconditionally so that every record it covers lives
// in a sealed segment that can be garbage-collected the moment the
// checkpoint is durable — which is what lets checkpoint writing proceed in
// the background while new appends land in the next segment.
//
// Torn-tail contract: a crash can truncate the log at any byte offset. A
// trailing record that is incomplete (the log ends inside its frame) or
// fails its checksum is a torn write of the crashed process and is skipped
// silently — the transaction it described was never acknowledged at that
// sync level. The torn tail is only ever legal at the very end of the log:
// a bad frame followed by further well-formed records (in the same segment
// or any later one) is NOT a torn write but mid-log rot, and replaying
// past it would diverge from the acknowledged history, so recovery reports
// a hard error instead of guessing.
//
// Failure semantics (the fsyncgate rule): after ANY failed write, fsync or
// truncate the kernel page cache is in an unknown state — a retry that
// appears to succeed may still lose the original pages. The log therefore
// poisons itself on the first such failure: the failing call returns the
// real error (the caller rolls back its in-memory state exactly as for any
// failed append) and every later Append/Sync fails fast with ErrPoisoned
// until the log is discarded and the directory re-opened through recovery.
// One failure is different in kind: an fsync that fails after the frame was
// written in full (ErrOutcomeUnknown). The complete, checksummed frame was
// handed to the file, so recovery replays it whenever its pages reached the
// disk, although the append was not acknowledged.
//
// Record frame layout (little-endian):
//
//	[4 bytes payload length][4 bytes CRC32-Castagnoli of payload][payload]
//
// Payload layout: record kind (1 byte), LSN (uvarint), then per-relation
// net deltas (name, arity, inserted tuples, deleted tuples) in the binary
// value encoding of encode.go.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"birds/internal/value"
)

// SyncMode selects when the log is fsynced.
type SyncMode uint8

const (
	// SyncOff never fsyncs: records reach the OS on write and the disk
	// whenever the OS flushes (or on Close). Fastest; a machine crash can
	// lose recent acknowledged writes, a process crash cannot.
	SyncOff SyncMode = iota
	// SyncOnCommit fsyncs every record — direct transactions, batch
	// flushes and bulk loads alike. Every acknowledged write survives a
	// machine crash.
	SyncOnCommit
	// SyncOnFlush fsyncs group-commit flush records (and checkpoints) but
	// lets direct per-transaction records ride along until the next sync.
	// With batching enabled this amortizes one fsync across the whole
	// batch, exactly as the flush amortizes the view-maintenance pass.
	SyncOnFlush
)

// String renders the mode as its flag spelling (off / commit / flush).
func (m SyncMode) String() string {
	switch m {
	case SyncOff:
		return "off"
	case SyncOnCommit:
		return "commit"
	case SyncOnFlush:
		return "flush"
	default:
		return fmt.Sprintf("syncmode(%d)", uint8(m))
	}
}

// ParseSyncMode parses the flag spelling of a sync mode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "commit":
		return SyncOnCommit, nil
	case "flush":
		return SyncOnFlush, nil
	}
	return SyncOff, fmt.Errorf("wal: unknown sync mode %q (want off, commit or flush)", s)
}

// Kind discriminates log records.
type Kind uint8

const (
	// KindTxn is one direct (unbatched) transaction commit: the exact net
	// row delta of the transaction, per affected base table.
	KindTxn Kind = iota + 1
	// KindBatch is one group-commit flush: the coalesced net row delta of
	// every transaction in the batch, per affected base table.
	KindBatch
	// KindBulkLoad is one LoadTable call: the rows actually inserted
	// (duplicates of existing rows excluded), as an insert-only delta.
	KindBulkLoad
)

func (k Kind) String() string {
	switch k {
	case KindTxn:
		return "txn"
	case KindBatch:
		return "batch"
	case KindBulkLoad:
		return "bulk-load"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// TableDelta is the net row delta of one relation inside a changeset. For
// KindBulkLoad, Del is empty.
type TableDelta struct {
	Name  string
	Arity int
	Ins   []value.Tuple
	Del   []value.Tuple
}

// Changeset is one visibility point: the net row deltas a commit made
// visible, under the one number that is both its LSN and its CDC seq. A
// record encodes Kind, Seq and Tables; Views are never logged (recovery
// re-derives views from base tables), so a replayed changeset has none.
type Changeset struct {
	Kind   Kind
	Seq    uint64
	Tables []TableDelta // base tables
	Views  []TableDelta // derived relations with a subscriber
}

const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

// DefaultSegmentBytes is the rotation threshold when the caller passes 0.
const DefaultSegmentBytes int64 = 4 << 20

// segName renders the file name of the segment whose first record has the
// given LSN; 16-hex zero-padding makes lexicographic order LSN order.
func segName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, lsn, segSuffix)
}

// segLSN parses a segment file name back to its first LSN.
func segLSN(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// Segments lists the log segments in dir in replay order, ascending by
// first LSN. fsys nil means the process filesystem.
func Segments(fsys FS, dir string) []string {
	fsys = realFS(fsys)
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var segs []string
	for _, e := range entries {
		if _, ok := segLSN(e.Name()); ok {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs) // zero-padded hex: lexicographic == LSN order
	return segs
}

// HasLogData reports whether dir holds any non-empty log segment. fsys nil
// means the process filesystem.
func HasLogData(fsys FS, dir string) bool {
	fsys = realFS(fsys)
	for _, name := range Segments(fsys, dir) {
		if st, err := fsys.Stat(filepath.Join(dir, name)); err == nil && st.Size() > 0 {
			return true
		}
	}
	return false
}

const frameHeader = 8 // 4 bytes length + 4 bytes CRC

// maxRecordBytes bounds a single record frame (1 GiB); a length prefix
// beyond it can only be corruption.
const maxRecordBytes = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports mid-log corruption: a record that fails its checksum
// (or does not decode) but is followed by further well-formed records, so
// it cannot be the torn tail of a crashed append.
var ErrCorrupt = errors.New("wal: mid-log corruption")

// ErrPoisoned reports that an earlier write/sync/truncate failure left the
// log's on-disk state unknown, so further appends are refused until the
// directory is re-opened through recovery (the fsyncgate rule: never
// retry against a file whose page-cache state you cannot trust).
var ErrPoisoned = errors.New("wal: log poisoned by earlier storage failure")

// ErrOutcomeUnknown reports an Append whose frame was written in full but
// whose fsync failed. The write was not acknowledged, yet its record is a
// complete frame in the log: recovery (a restart or a re-open) may replay
// it. Callers must report such a write as of unknown outcome, never as
// failed.
var ErrOutcomeUnknown = errors.New("wal: record written but not synced; outcome unknown, the write may be recovered on restart")

// Log is an open write-ahead log. Append/Sync serialize on an internal
// mutex; the engine additionally calls them under its own write lock,
// which is what orders records identically to execution order.
type Log struct {
	mu       sync.Mutex
	fsys     FS
	f        File
	dir      string
	last     uint64 // LSN of the last record; the next append must carry last+1
	segStart uint64 // first LSN the active segment holds (or will hold)
	segBytes int64  // rotation threshold; < 0 disables rotation
	size     int64  // bytes in the active segment
	buf      []byte
	dirty    bool  // bytes appended since the last fsync
	poisoned error // first storage failure; non-nil refuses all appends
}

// Open opens the log inside dir, positioned to append. nextLSN is the LSN
// the next appended record must carry; callers derive it from the
// checkpoint/replay they performed before opening. fsys nil means the
// process filesystem; segBytes is the rotation threshold (0 = default,
// negative = never rotate).
//
// Appends continue into the newest existing segment after trimming any
// torn tail it carries (the trimmed bytes are by definition
// unacknowledged); if the directory holds no segment, a fresh segment is
// created. Stray checkpoint temp files from an interrupted checkpoint are
// swept here.
func Open(fsys FS, dir string, nextLSN uint64, segBytes int64) (*Log, error) {
	fsys = realFS(fsys)
	if segBytes == 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sweepTemp(fsys, dir)

	l := &Log{fsys: fsys, dir: dir, last: nextLSN - 1, segBytes: segBytes}
	segs := Segments(fsys, dir)
	// Drop empty trailing segments (leftovers of an interrupted rotation):
	// they hold no records, and appending into one would strand a torn
	// tail of the previous segment in the middle of the log.
	for len(segs) > 0 {
		name := segs[len(segs)-1]
		st, err := fsys.Stat(filepath.Join(dir, name))
		if err != nil || st.Size() > 0 {
			break
		}
		if fsys.Remove(filepath.Join(dir, name)) != nil {
			break // keep appending into it; a record makes it non-empty
		}
		segs = segs[:len(segs)-1]
	}
	if len(segs) == 0 {
		if err := l.createSegmentLocked(nextLSN); err != nil {
			return nil, err
		}
		return l, nil
	}

	// Append into the newest segment: find the end of its valid frame
	// prefix and trim anything after it, so a new append can never
	// resurrect torn bytes into a mid-log corruption.
	newest := segs[len(segs)-1]
	path := filepath.Join(dir, newest)
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	valid, err := validPrefixLen(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", newest, err)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	start, _ := segLSN(newest)
	l.f = f
	l.segStart = start
	l.size = int64(valid)
	return l, nil
}

// validPrefixLen returns the byte length of the longest prefix of data
// consisting of complete, checksum-valid frames. Trailing bytes beyond it
// must be a torn tail: if any valid frame follows them, that is mid-log
// corruption and an error.
func validPrefixLen(data []byte) (int, error) {
	off := 0
	for off < len(data) {
		_, frameLen, ok := decodeFrame(data[off:])
		if !ok {
			if frameLen > 0 && anyValidFrame(data[off+frameLen:]) {
				return 0, fmt.Errorf("%w: bad record at byte offset %d", ErrCorrupt, off)
			}
			return off, nil
		}
		off += frameLen
	}
	return off, nil
}

// createSegmentLocked opens a fresh active segment whose first record
// will carry lsn, and fsyncs the directory so the file itself survives a
// machine crash.
func (l *Log) createSegmentLocked(lsn uint64) error {
	f, err := l.fsys.OpenFile(filepath.Join(l.dir, segName(lsn)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.fsys, l.dir); err != nil {
		f.Close()
		l.fsys.Remove(filepath.Join(l.dir, segName(lsn)))
		return err
	}
	l.f = f
	l.segStart = lsn
	l.size = 0
	return nil
}

// Dir returns the durability directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// LastLSN returns the LSN of the most recently appended record (Open's
// nextLSN-1 if none was appended since).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Poisoned returns nil while the log is healthy, or an ErrPoisoned-wrapped
// error naming the storage failure that killed it.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.poisoned == nil {
		return nil
	}
	return l.poisonedErrLocked()
}

func (l *Log) poisonLocked(err error) {
	if l.poisoned == nil {
		l.poisoned = err
	}
}

func (l *Log) poisonedErrLocked() error {
	return fmt.Errorf("%w: %w", ErrPoisoned, l.poisoned)
}

// Append encodes cs as one record at LSN cs.Seq, writes its frame and —
// when sync is true — fsyncs the log. The caller numbers the record: a
// Seq other than LastLSN()+1 is refused before a byte is written, and the
// log stays healthy. The record is acknowledged only on success, so on any
// error the caller rolls its in-memory state back. A write or sync failure
// additionally poisons the log (see ErrPoisoned). When the write failed,
// any bytes it left behind become a permanent torn tail that recovery
// skips, because nothing is ever appended after them: the write failed.
// When the frame was written in full and only its fsync failed, the error
// wraps ErrOutcomeUnknown: the frame stays in the segment and recovery
// may replay it, so the write's outcome is unknown, not failed.
func (l *Log) Append(cs *Changeset, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.poisoned != nil {
		return l.poisonedErrLocked()
	}
	if cs.Seq != l.last+1 {
		return fmt.Errorf("wal: append at LSN %d after LSN %d", cs.Seq, l.last)
	}
	if l.segBytes > 0 && l.size >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	payload := encodeRecord(l.buf[:0], cs)
	l.buf = payload[:0] // keep the (possibly grown) scratch buffer

	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	// One writev-style append: header and payload in a single Write call,
	// so a crash tears at a byte offset inside one frame, never interleaves
	// frames.
	frame := append(hdr[:], payload...)
	if n, err := l.f.Write(frame); err != nil || n < len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		// The partial write left a torn (unacknowledged) tail; poisoning
		// guarantees no later append lands after it, so recovery skips it.
		l.poisonLocked(err)
		return err
	}
	l.size += int64(len(frame))
	l.dirty = true
	l.last = cs.Seq
	if sync {
		if err := l.syncLocked(); err != nil {
			return fmt.Errorf("%w: %w", ErrOutcomeUnknown, err)
		}
	}
	return nil
}

// rotateLocked seals the active segment (fsyncing its tail) and starts a
// fresh one at the next LSN. A sync failure poisons the log and is
// returned; a failure to create or persist the new segment is graceful —
// the log keeps appending to the current segment and retries rotation on
// the next threshold crossing.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	old := l.f
	oldStart, oldSize := l.segStart, l.size
	if err := l.createSegmentLocked(l.last + 1); err != nil {
		// Keep writing the oversized segment; availability beats rotation.
		l.f, l.segStart, l.size = old, oldStart, oldSize
		return nil
	}
	old.Close() // already synced; close errors carry no data risk
	return nil
}

// RotateForCheckpoint seals the active segment so a checkpoint cut at the
// current last LSN covers only sealed segments, and returns the first LSN
// of the (possibly fresh) active segment: every segment below it is
// garbage the moment that checkpoint is durable. An empty active segment
// is returned as-is.
func (l *Log) RotateForCheckpoint() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.poisoned != nil {
		return 0, l.poisonedErrLocked()
	}
	if l.size > 0 {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return l.segStart, nil
}

// RemoveSegmentsBelow deletes every sealed segment whose records all
// predate startLSN, i.e. whose first LSN is below it. Removal failures are non-fatal — stale segments only cost
// replay skips — so only the first error is reported.
func (l *Log) RemoveSegmentsBelow(startLSN uint64) error {
	l.mu.Lock()
	fsys, dir, active := l.fsys, l.dir, l.segStart
	l.mu.Unlock()
	var firstErr error
	for _, name := range Segments(fsys, dir) {
		lsn, _ := segLSN(name)
		if lsn >= startLSN || lsn == active {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Sync fsyncs any appended-but-unsynced records. A failure poisons the
// log: the unsynced tail is in unknown page-cache state and retrying the
// fsync cannot bring it back (the fsyncgate rule).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.poisoned != nil {
		return l.poisonedErrLocked()
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.poisonLocked(err)
		return err
	}
	l.dirty = false
	return nil
}

// Size returns the byte size of the active segment.
func (l *Log) Size() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size, nil
}

// SegmentStart returns the first LSN of the active segment.
func (l *Log) SegmentStart() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segStart
}

// Close fsyncs and closes the log file. A poisoned log is closed without
// syncing — its state is unknown and recovery is the only way forward.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if l.poisoned != nil {
		l.f.Close()
		l.f = nil
		return nil
	}
	serr := l.syncLocked()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// ReplayResult summarizes one log replay.
type ReplayResult struct {
	// Last is the LSN of the last record delivered (afterLSN if none).
	Last uint64
	// Replayed counts the records delivered to the callback.
	Replayed int
	// Skipped counts well-formed records at or below afterLSN (already
	// covered by the checkpoint) that were not delivered.
	Skipped int
	// TornTail reports that trailing bytes were discarded as a torn write.
	TornTail bool
	// Segments counts the log segments read.
	Segments int
}

// Replay reads the log at dir — every segment in LSN order — and delivers every record with LSN > afterLSN to
// fn, in log order. Incomplete or checksum-failing trailing records are
// skipped silently (TornTail is set), but only at the very end of the
// log: a bad record followed by a well-formed record in the same segment,
// or by ANY data in a later segment, is mid-log corruption and returns
// ErrCorrupt. (A crash can only tear the final append, and rotation seals
// a segment with its last frame complete — so torn bytes live in the
// newest non-empty segment or nowhere; empty trailing segments from an
// interrupted rotation are fine.) A missing or empty log replays as
// empty. fsys nil means the process filesystem.
func Replay(fsys FS, dir string, afterLSN uint64, fn func(*Changeset) error) (ReplayResult, error) {
	fsys = realFS(fsys)
	res := ReplayResult{Last: afterLSN}
	torn := false
	for _, name := range Segments(fsys, dir) {
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return res, err
		}
		res.Segments++
		if torn && len(data) > 0 {
			return res, fmt.Errorf("%w: %s holds data after a torn tail in an earlier segment", ErrCorrupt, name)
		}
		off := 0
		for off < len(data) {
			rec, frameLen, ok := decodeFrame(data[off:])
			if !ok {
				// The frame at off is incomplete, checksum-failing or
				// undecodable. If any complete, checksum-valid frame
				// follows it in this segment, the log rotted in the
				// middle; otherwise this is the torn tail of a crashed
				// append (later segments are checked above).
				if frameLen > 0 && anyValidFrame(data[off+frameLen:]) {
					return res, fmt.Errorf("%w: bad record at byte offset %d of %s", ErrCorrupt, off, name)
				}
				torn = true
				res.TornTail = true
				break
			}
			off += frameLen
			if rec.Seq <= afterLSN {
				res.Skipped++
				continue
			}
			if rec.Seq != res.Last+1 {
				return res, fmt.Errorf("%w: record LSN %d after LSN %d (gap)", ErrCorrupt, rec.Seq, res.Last)
			}
			if err := fn(rec); err != nil {
				return res, err
			}
			res.Last = rec.Seq
			res.Replayed++
		}
	}
	return res, nil
}

// decodeFrame decodes the frame at the start of data. ok is false when the
// frame is incomplete, fails its checksum, or does not decode. frameLen is
// non-zero only for a COMPLETE frame (its bytes are all present, so a
// caller can resync past it); an incomplete frame extends to end-of-data
// and nothing can follow it.
func decodeFrame(data []byte) (rec *Changeset, frameLen int, ok bool) {
	if len(data) < frameHeader {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	if n > maxRecordBytes {
		return nil, 0, false
	}
	frameLen = frameHeader + n
	if len(data) < frameLen {
		return nil, 0, false
	}
	payload := data[frameHeader:frameLen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, frameLen, false
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, frameLen, false
	}
	return rec, frameLen, true
}

// anyValidFrame reports whether data contains a complete, checksum-valid
// record frame at its start (the resync probe behind the mid-log-corruption
// distinction: after a bad frame whose length field is intact, the next
// frame starts right after it).
func anyValidFrame(data []byte) bool {
	for len(data) >= frameHeader {
		rec, frameLen, ok := decodeFrame(data)
		if ok && rec != nil {
			return true
		}
		if frameLen == 0 || frameLen > len(data) {
			return false
		}
		data = data[frameLen:]
	}
	return false
}

// --- record encoding ------------------------------------------------------

// encodeRecord renders a changeset's record payload; its Views are not
// part of the record.
func encodeRecord(buf []byte, cs *Changeset) []byte {
	buf = append(buf, byte(cs.Kind))
	buf = binary.AppendUvarint(buf, cs.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(cs.Tables)))
	for _, t := range cs.Tables {
		buf = appendString(buf, t.Name)
		buf = binary.AppendUvarint(buf, uint64(t.Arity))
		buf = appendTuples(buf, t.Ins)
		buf = appendTuples(buf, t.Del)
	}
	return buf
}

func decodeRecord(payload []byte) (*Changeset, error) {
	d := &decoder{data: payload}
	rec := &Changeset{Kind: Kind(d.byte())}
	rec.Seq = d.uvarint()
	nt := int(d.uvarint())
	if d.err == nil && nt > len(payload) { // arity-free sanity bound
		return nil, fmt.Errorf("wal: implausible table count %d", nt)
	}
	for i := 0; i < nt && d.err == nil; i++ {
		var t TableDelta
		t.Name = d.string()
		t.Arity = int(d.uvarint())
		t.Ins = d.tuples(t.Arity)
		t.Del = d.tuples(t.Arity)
		rec.Tables = append(rec.Tables, t)
	}
	if d.err == nil && d.off != len(payload) {
		return nil, fmt.Errorf("wal: %d trailing bytes in record", len(payload)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	switch rec.Kind {
	case KindTxn, KindBatch, KindBulkLoad:
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	return rec, nil
}
