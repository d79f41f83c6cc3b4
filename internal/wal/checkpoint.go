package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"birds/internal/value"
)

// A checkpoint is an atomic snapshot of everything the log's row deltas are
// relative to: the DDL catalog (base-table schemas, view putback programs
// with their validated get rules), the durability options and the full
// contents of every base table, stamped with the LSN of the last log
// record whose effects it includes. A process's own settings (group-commit
// handles, evaluator execution mode) are not durable state and are not
// recorded. Materialized views and their support counts are deliberately
// absent: recovery re-derives them from base state through the counted
// initialization, proving the IVM layer a pure function of the base tables
// (and keeping checkpoints proportional to base data, not base + derived
// data).
//
// File layout: magic, then the same binary encoding as log records, then a
// trailing CRC32-Castagnoli over everything before it. Checkpoints are
// written to a temp file, fsynced, renamed into place
// (checkpoint-<LSN 16-hex>.ckpt, or checkpoint-<LSN>-<Gen 16-hex>.ckpt for
// a later cut at the same LSN) and the directory fsynced — a crash leaves
// either the old generation or the complete new one, never a partial file
// under the live name. A write never renames over an existing generation:
// a torn rename damages only the file being written.

// Checkpoint is a decoded snapshot.
type Checkpoint struct {
	// LSN is the sequence number of the last log record included in the
	// snapshot; recovery replays records with larger LSNs only.
	LSN uint64
	// Gen orders the checkpoints cut at one LSN (a DDL statement or an
	// explicit checkpoint with no write since the last cut): each new cut
	// at an LSN takes the next Gen. It lives in the file name, not the
	// payload; LatestCheckpoint sets it from the name.
	Gen uint64

	Tables []TableState
	Views  []ViewState

	// Sync, CheckpointEvery and SegmentBytes restore the durability
	// options on recovery.
	Sync            SyncMode
	CheckpointEvery int
	SegmentBytes    int64
}

// TableState is one base table: schema and full contents.
type TableState struct {
	Name  string
	Attrs []AttrState
	Rows  []value.Tuple
}

// AttrState is one attribute of a checkpointed table schema.
type AttrState struct {
	Name string
	Type string
}

// ViewState is one registered view, as re-creatable DDL: the putback
// program source, the validated get rules (so recovery skips re-running
// the validation oracle), and the maintenance mode.
type ViewState struct {
	Program     string   // putback program in concrete syntax
	Get         []string // validated get rules in concrete syntax
	Incremental bool
}

const (
	ckptMagic  = "BIRDSCKPT\x03"
	ckptSuffix = ".ckpt"
	ckptPrefix = "checkpoint-"
	tmpSuffix  = ".tmp"
)

// ckptName renders the live file name of a checkpoint at lsn and
// generation gen.
func ckptName(lsn, gen uint64) string {
	if gen == 0 {
		return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix)
	}
	return fmt.Sprintf("%s%016x-%016x%s", ckptPrefix, lsn, gen, ckptSuffix)
}

// ckptFile is a live checkpoint file with the LSN and generation its name
// carries.
type ckptFile struct {
	name     string
	lsn, gen uint64
}

// older reports whether f precedes the checkpoint at (lsn, gen).
func (f ckptFile) older(lsn, gen uint64) bool {
	return f.lsn < lsn || (f.lsn == lsn && f.gen < gen)
}

// WriteCheckpoint atomically persists ck into dir under the name of its
// (LSN, Gen), which the caller keeps unique — so the write never replaces a
// live generation — and removes strictly older generations on success.
// Newer generations are left alone: a synchronous checkpoint (DDL,
// explicit request) may land while a background one cut earlier is still
// being written, and whichever finishes last must not delete the other's
// newer state. A failed write leaves no temp file behind; if even the
// cleanup fails (the disk is truly hostile), the next Open sweeps strays.
// fsys nil means the process filesystem.
func WriteCheckpoint(fsys FS, dir string, ck *Checkpoint) error {
	fsys = realFS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	payload := encodeCheckpoint(ck)

	tmp, err := fsys.CreateTemp(dir, ckptPrefix+"*"+tmpSuffix)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); fsys.Remove(tmpName) }
	if _, err := tmp.Write(payload); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	live := filepath.Join(dir, ckptName(ck.LSN, ck.Gen))
	if err := fsys.Rename(tmpName, live); err != nil {
		// A torn rename may leave a partial copy under the new name; its
		// checksum makes recovery fall back to the previous generation, which
		// the rename never touched, and the next successful checkpoint
		// removes the partial copy as an older generation.
		fsys.Remove(tmpName)
		return err
	}
	if err := syncDir(fsys, dir); err != nil {
		return err
	}
	// The new generation is durable; older generations (and stray temp
	// files) are redundant. Removal failures are ignored — stale files are
	// skipped by LSN order on recovery.
	for _, f := range checkpointFiles(fsys, dir) {
		if f.older(ck.LSN, ck.Gen) {
			fsys.Remove(filepath.Join(dir, f.name))
		}
	}
	return nil
}

// sweepTemp removes stray checkpoint temp files left by an interrupted or
// failed checkpoint whose own cleanup also failed. Called on Open, before
// any new checkpoint activity.
func sweepTemp(fsys FS, dir string) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, tmpSuffix) {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// LatestCheckpoint loads the newest checkpoint in dir that decodes and
// passes its checksum, falling back to older generations. It returns
// (nil, nil) when dir holds no checkpoint at all — the empty-state
// baseline; a dir whose every checkpoint is corrupt is an error. fsys nil
// means the process filesystem.
func LatestCheckpoint(fsys FS, dir string) (*Checkpoint, error) {
	fsys = realFS(fsys)
	files := checkpointFiles(fsys, dir)
	if len(files) == 0 {
		return nil, nil
	}
	var firstErr error
	for i := len(files) - 1; i >= 0; i-- { // newest first
		name := files[i].name
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ck, err := decodeCheckpoint(data)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: checkpoint %s: %w", name, err)
			}
			continue
		}
		ck.Gen = files[i].gen
		return ck, nil
	}
	return nil, fmt.Errorf("wal: no valid checkpoint in %s: %w", dir, firstErr)
}

// checkpointFiles lists the live checkpoint files in dir (temp files
// excluded), oldest first.
func checkpointFiles(fsys FS, dir string) []ckptFile {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []ckptFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		lsnHex, genHex, hasGen := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), "-")
		f := ckptFile{name: name}
		var err error
		if f.lsn, err = strconv.ParseUint(lsnHex, 16, 64); err != nil {
			continue
		}
		if hasGen {
			if f.gen, err = strconv.ParseUint(genHex, 16, 64); err != nil {
				continue
			}
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].older(out[j].lsn, out[j].gen) })
	return out
}

// --- checkpoint encoding --------------------------------------------------

func encodeCheckpoint(ck *Checkpoint) []byte {
	buf := []byte(ckptMagic)
	buf = binary.AppendUvarint(buf, ck.LSN)
	buf = append(buf, byte(ck.Sync))
	buf = binary.AppendUvarint(buf, uint64(ck.CheckpointEvery))
	buf = binary.AppendVarint(buf, ck.SegmentBytes)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Tables)))
	for _, t := range ck.Tables {
		buf = appendString(buf, t.Name)
		buf = binary.AppendUvarint(buf, uint64(len(t.Attrs)))
		for _, a := range t.Attrs {
			buf = appendString(buf, a.Name)
			buf = appendString(buf, a.Type)
		}
		buf = appendTuples(buf, t.Rows)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Views)))
	for _, v := range ck.Views {
		buf = appendString(buf, v.Program)
		buf = binary.AppendUvarint(buf, uint64(len(v.Get)))
		for _, g := range v.Get {
			buf = appendString(buf, g)
		}
		if v.Incremental {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+4 {
		return nil, errors.New("truncated checkpoint")
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, errors.New("bad checkpoint magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, errors.New("checkpoint checksum mismatch")
	}
	d := &decoder{data: body, off: len(ckptMagic)}
	ck := &Checkpoint{}
	ck.LSN = d.uvarint()
	ck.Sync = SyncMode(d.byte())
	ck.CheckpointEvery = int(d.uvarint())
	ck.SegmentBytes = d.varint()
	nt := int(d.uvarint())
	for i := 0; i < nt && d.err == nil; i++ {
		var t TableState
		t.Name = d.string()
		na := int(d.uvarint())
		for j := 0; j < na && d.err == nil; j++ {
			t.Attrs = append(t.Attrs, AttrState{Name: d.string(), Type: d.string()})
		}
		t.Rows = d.tuples(len(t.Attrs))
		ck.Tables = append(ck.Tables, t)
	}
	nv := int(d.uvarint())
	for i := 0; i < nv && d.err == nil; i++ {
		var v ViewState
		v.Program = d.string()
		ng := int(d.uvarint())
		for j := 0; j < ng && d.err == nil; j++ {
			v.Get = append(v.Get, d.string())
		}
		v.Incremental = d.byte() == 1
		ck.Views = append(ck.Views, v)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%d trailing bytes in checkpoint", len(body)-d.off)
	}
	return ck, nil
}
