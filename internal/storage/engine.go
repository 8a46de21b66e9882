// Package storage is the durability layer under the in-memory aggregation
// store: a per-shard write-ahead log for everything a session commits, plus
// immutable segment files that sealed blocks spill into the moment they
// seal, plus crash recovery that rebuilds a byte-identical store from the
// newest segment manifest and the WAL tails above it.
//
// The split mirrors the store's own hot/cold split. The WAL is the hot
// tail's durability: every batch and table push a session commits is
// framed, CRC'd and written (one write(2) per batch) before the store
// commits it, so an acknowledged batch survives process death in every
// sync mode and OS death per the chosen SyncMode. Segments are the sealed data's durability *and*
// its eviction: the seal path hands each finished 512-symbol block to the
// shard's segment writer, which appends the packed payload to a
// preallocated, mmapped file and returns the mapped bytes for the store to
// adopt — after which queries aggregate directly over the on-disk words
// through the same packed-domain kernels, and resident memory is bounded by
// live tails, summaries and directories no matter how much history
// accumulates.
//
// The WAL does not outlive the segments that cover it. Each time a shard's
// open segment finishes (it is full, or Flush or Close runs) the shard's log
// rotates: a new generation opens with a checkpoint — per meter, its table
// history, sequence high-water mark, segment-covered point count and the
// blocks after those points — the manifest moves the shard's floor to it,
// and the older generations are unlinked. A shard's log therefore holds
// about one segment's worth of records plus a checkpoint, whatever the
// uptime, and after a clean Close it holds the checkpoint alone.
//
// Recovery replays in two layers: manifest-listed segments rebuild each
// meter's sealed chain (summaries and the firstT directory come from the
// segment footer — no payload is decoded), then the WAL from the shard's
// floor replays through the normal Append path: the checkpoint's blocks and
// the records after it, less each meter's points the segments restored
// beyond the checkpoint's covered count. A batch the segments fully cover is
// skipped from its header without unpacking, so replay costs what the
// uncovered tail holds, and shards — which never share a meter — verify and
// replay in parallel. Anything torn at the very end of a WAL was never
// acknowledged and is truncated; damage anywhere else fails recovery loudly
// (ErrWALCorrupt) rather than silently dropping acknowledged data.
//
// Every filesystem operation goes through the FS seam (fs.go), and every
// durability failure is classified by the health state machine (health.go):
// the engine degrades to queries-only instead of crashing or lying, and
// heals onto a fresh WAL generation when the directory recovers.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symmeter/internal/metrics"
	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if missing). Its layout:
	// MANIFEST.json, wal/shard-NNNN[-GGGGGG].wal, seg/NNNN-SSSSSS.seg.
	Dir string
	// Shards is the store's shard count for a fresh directory; an existing
	// directory's manifest takes precedence (the WAL files are per-shard).
	Shards int
	// Sync is the WAL durability mode; the default is SyncGroup.
	Sync SyncMode
	// SegmentBytes caps one segment file's preallocated size (default 4MiB,
	// min 64KiB).
	SegmentBytes int
	// FS is the filesystem the engine writes through; nil means the real
	// one (OsFS). Tests inject internal/faultfs here.
	FS FS
	// ProbeInterval is the cadence of the background health probe that
	// re-tests a degraded data directory (default 500ms).
	ProbeInterval time.Duration
	// Metrics is the registry the engine's telemetry (WAL latency recorders,
	// health gauges, fault counters) registers on. Nil creates a private
	// registry, so the recording paths never branch on telemetry being
	// enabled. Pass the serving registry to expose the series on /metrics;
	// never share one registry between two engines — the series collide.
	Metrics *metrics.Registry
}

// RecoveryStats reports what Open rebuilt.
type RecoveryStats struct {
	// Segments and SegmentBlocks/SegmentPoints count the sealed state
	// restored from manifest-listed segment files without decoding.
	Segments      int
	SegmentBlocks int
	SegmentPoints int64
	// WALRecords is the total parsed log records; ReplayedPoints the points
	// re-appended through the store (tails plus post-manifest seals);
	// SkippedPoints the points the segment restore already covered — those
	// a checkpoint counts as covered plus those skipped in its blocks and
	// the records after it.
	WALRecords     int
	ReplayedPoints int64
	SkippedPoints  int64
	// TornTails counts WAL files whose unacknowledged trailing write was
	// dropped and truncated.
	TornTails int
	// Meters is the number of recovered meters.
	Meters int
	// ReadVerify, SegmentLoad and Replay time recovery's phases: reading,
	// CRC-checking and torn-tail-truncating the logs and collecting their
	// tables; mapping the manifest's segments and decoding their footers;
	// and restoring the sealed chains and replaying the logs.
	ReadVerify  time.Duration
	SegmentLoad time.Duration
	Replay      time.Duration
}

// groupSyncInterval is the background fsync cadence under SyncGroup — the
// OS-crash data-loss bound.
const groupSyncInterval = 2 * time.Millisecond

// shardGate orders a shard's writes against its log rotations. A write
// holds it shared from its log record to its store commit; a rotation holds
// it exclusively, so the store it checkpoints holds exactly what the logs it
// unlinks hold, and no write straddles the swap to the new log. due marks a
// shard whose open segment finished, which makes its log due a checkpoint.
type shardGate struct {
	mu  sync.RWMutex
	due atomic.Bool
	_   [32]byte // one gate per cache line
}

// walGenFile is one live log generation below a shard's current one.
type walGenFile struct {
	gen  uint64
	size int64
}

// Engine wraps a server.Store with the WAL + segment durability layer. It
// implements server.Ingest, so a Service routes session writes through it
// unchanged. Flush and Close require ingest to be quiesced (sessions
// drained): the segment writers run under the store's shard locks on the
// seal path and are not otherwise synchronized.
type Engine struct {
	opts  Options
	fs    FS
	store *server.Store
	segs  []*segmentWriter

	// wals holds each shard's current log behind an atomic pointer: a
	// rotation swaps in the next generation under the shard's gate, and the
	// group syncer reads it without one.
	wals   []atomic.Pointer[wal]
	walGen atomic.Uint64
	gates  []shardGate
	// older is, per shard and under its gate, the live generations below
	// the one wals[i] appends to — the replay prefix a checkpoint unlinks.
	// walOlder totals their sizes and segBytes every segment file's, for
	// the byte gauges.
	older    [][]walGenFile
	walOlder atomic.Int64
	segBytes atomic.Int64

	manMu sync.Mutex
	man   manifest

	mapsMu sync.Mutex
	maps   [][]byte

	health healthState
	met    *engineMetrics

	stop   chan struct{}
	syncWG sync.WaitGroup
	closed atomic.Bool

	recovered RecoveryStats
}

// Open recovers (or initializes) the data directory and returns the engine
// with its rebuilt store. The store answers queries immediately; install the
// engine as the service's Ingest to make new traffic durable.
func Open(opts Options) (*Engine, error) {
	if opts.Dir == "" {
		return nil, errors.New("storage: Options.Dir is required")
	}
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SegmentBytes < 64<<10 {
		opts.SegmentBytes = 64 << 10
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OsFS{}
	}
	for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, "wal"), filepath.Join(opts.Dir, "seg")} {
		if err := fsys.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	man, haveMan, migrated, err := loadManifest(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	if !haveMan {
		man = newManifest(opts.Shards)
	}
	if !haveMan || migrated {
		if err := writeManifest(fsys, opts.Dir, man); err != nil {
			return nil, err
		}
	}
	// The directory's shard count wins: the WAL is partitioned by it.
	opts.Shards = man.Shards

	reg := opts.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	e := &Engine{
		opts:  opts,
		fs:    fsys,
		store: server.NewStore(man.Shards),
		man:   man,
		met:   newEngineMetrics(reg),
	}
	e.registerHealthMetrics()
	e.walGen.Store(man.WALGen)
	if err := e.recover(); err != nil {
		e.unwind()
		return nil, err
	}
	e.registerRecoveryMetrics()
	e.registerDiskMetrics()
	e.stop = make(chan struct{})
	// The probe runs for the engine's lifetime (idle while Healthy) so a
	// degrade never has to race a goroutine start against Close.
	e.syncWG.Add(1)
	go e.probeLoop(opts.ProbeInterval)
	if opts.Sync == SyncGroup {
		e.syncWG.Add(1)
		go e.groupSync()
	}
	return e, nil
}

// Store returns the recovered (and live) aggregation store.
func (e *Engine) Store() *server.Store { return e.store }

// Recovery returns what Open rebuilt.
func (e *Engine) Recovery() RecoveryStats { return e.recovered }

// Sync returns the engine's WAL durability mode.
func (e *Engine) Sync() SyncMode { return e.opts.Sync }

func (e *Engine) segDir() string { return filepath.Join(e.opts.Dir, "seg") }

// walGenPath names shard's log at the given generation. Generation 0 is the
// original pre-rotation layout (format 1 directories have only it).
func (e *Engine) walGenPath(shard int, gen uint64) string {
	if gen == 0 {
		return filepath.Join(e.opts.Dir, "wal", fmt.Sprintf("shard-%04d.wal", shard))
	}
	return filepath.Join(e.opts.Dir, "wal", fmt.Sprintf("shard-%04d-%06d.wal", shard, gen))
}

// parseWALName parses a log file name's shard and generation; ok is false
// for names that are not shard logs.
func parseWALName(name string) (shard int, gen uint64, ok bool) {
	if !strings.HasPrefix(name, "shard-") || !strings.HasSuffix(name, ".wal") {
		return 0, 0, false
	}
	parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(name, "shard-"), ".wal"), "-")
	if len(parts) > 2 {
		return 0, 0, false
	}
	s, err := strconv.ParseUint(parts[0], 10, 31)
	if err != nil {
		return 0, 0, false
	}
	if len(parts) == 2 {
		// Generation 0 has only the short name.
		if gen, err = strconv.ParseUint(parts[1], 10, 64); err != nil || gen == 0 {
			return 0, 0, false
		}
	}
	return int(s), gen, true
}

// recover rebuilds the store: orphan cleanup, segment restore, WAL replay,
// torn-tail truncation, seal-sink installation. On error the caller (Open)
// unwinds every file and mapping opened so far.
func (e *Engine) recover() error {
	shards := e.opts.Shards
	e.gates = make([]shardGate, shards)

	// 1. Drop segment files the manifest does not list — the open segment of
	// a crashed run has no footer and its blocks replay from the WAL — and
	// WAL generations outside a shard's live range: above the manifest's
	// generation a rotation crashed before its manifest barrier and never
	// acknowledged anything into them; below the shard's floor a checkpoint
	// superseded them and crashed before it unlinked them.
	listed := make(map[string]bool, len(e.man.Segments))
	nextSeq := make([]uint64, shards)
	for _, ms := range e.man.Segments {
		listed[ms.File] = true
		if ms.Shard >= 0 && ms.Shard < shards && ms.Seq >= nextSeq[ms.Shard] {
			nextSeq[ms.Shard] = ms.Seq + 1
		}
	}
	entries, err := e.fs.ReadDir(e.segDir())
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() && !listed[ent.Name()] {
			if err := e.fs.Remove(filepath.Join(e.segDir(), ent.Name())); err != nil {
				return err
			}
		}
	}
	walEntries, err := e.fs.ReadDir(filepath.Join(e.opts.Dir, "wal"))
	if err != nil {
		return err
	}
	live := make([][]uint64, shards)
	for _, ent := range walEntries {
		shard, gen, ok := parseWALName(ent.Name())
		if !ok || ent.IsDir() || shard >= shards {
			continue
		}
		if gen > e.man.WALGen || gen < e.man.WALFloor[shard] {
			if err := e.fs.Remove(filepath.Join(e.opts.Dir, "wal", ent.Name())); err != nil {
				return err
			}
			continue
		}
		live[shard] = append(live[shard], gen)
	}
	// A floor above 0 names the generation holding the shard's checkpoint,
	// its meters' only record of what the segments do not hold. Without it
	// the shard would silently come back empty.
	for i, floor := range e.man.WALFloor {
		if floor > 0 && !slices.Contains(live[i], floor) {
			return fmt.Errorf("%w: shard %d: checkpoint generation %s is missing", ErrWALCorrupt, i, e.walGenPath(i, floor))
		}
	}

	// 2. Load manifest segments: sealed chains per meter, in spill order
	// (manifest order is per-shard finish order), plus per-meter skip
	// counts for the replay. A block joins the shard its meter hashes to —
	// the shard whose log replays that meter.
	start := time.Now()
	logs := make([]shardLog, shards)
	for i := range logs {
		logs[i].meters = make(map[uint64]*meterReplay)
	}
	for _, ms := range e.man.Segments {
		if ms.Shard < 0 || ms.Shard >= shards {
			return fmt.Errorf("storage: manifest segment %s claims shard %d of %d", ms.File, ms.Shard, shards)
		}
		blocks, mapping, err := loadSegment(e.fs, filepath.Join(e.segDir(), ms.File))
		if err != nil {
			return err
		}
		e.trackMapping(mapping)
		e.segBytes.Add(int64(len(mapping)))
		e.recovered.Segments++
		for _, sb := range blocks {
			mr := logs[e.store.ShardFor(sb.meterID)].meter(sb.meterID)
			mr.sealed = append(mr.sealed, sb.blk)
			mr.skip += int64(sb.blk.N)
			e.recovered.SegmentBlocks++
			e.recovered.SegmentPoints += int64(sb.blk.N)
		}
	}
	e.recovered.SegmentLoad = time.Since(start)

	// 3. Read every shard's live WAL generations, oldest first — a shard's
	// record stream is their concatenation — then verify the shards in
	// parallel and truncate torn tails. The file operations run in shard
	// order, so a fault schedule that fails the Nth one fails the same file
	// on every run.
	start = time.Now()
	e.older = make([][]walGenFile, shards)
	for i := range logs {
		slices.Sort(live[i])
		for j, g := range live[i] {
			path := e.walGenPath(i, g)
			raw, err := e.fs.ReadFile(path)
			if err != nil {
				return err
			}
			logs[i].files = append(logs[i].files, walFile{path: path, gen: g, raw: raw, current: j == len(live[i])-1})
		}
	}
	if err := forEachShard(shards, func(i int) error { return logs[i].verify(e.store, i) }); err != nil {
		return err
	}
	for i := range logs {
		for _, f := range logs[i].files {
			if f.torn {
				if err := e.fs.Truncate(f.path, f.valid); err != nil {
					return err
				}
				e.recovered.TornTails++
			}
			if !f.current {
				e.older[i] = append(e.older[i], walGenFile{gen: f.gen, size: f.valid})
				e.walOlder.Add(f.valid)
			}
		}
		e.recovered.WALRecords += len(logs[i].recs)
	}
	e.recovered.ReadVerify = time.Since(start)

	// 4. Install the seal sink before replaying, so blocks that seal during
	// replay spill to fresh segments exactly as live ones do and recovery's
	// resident memory stays bounded too. Each writer starts out knowing
	// what its shard's segments cover per meter, the count its checkpoints
	// record.
	e.segs = make([]*segmentWriter, shards)
	for i := range e.segs {
		sw := &segmentWriter{eng: e, shard: i, seq: nextSeq[i], cap: e.opts.SegmentBytes,
			covered: make(map[uint64]int64), held: make(map[uint64][]server.SealedBlock)}
		for m, mr := range logs[i].meters {
			if mr.skip > 0 {
				sw.covered[m] = mr.skip
			}
		}
		e.segs[i] = sw
	}
	e.store.SetSealSink(e)

	// 5. Restore and replay the shards in parallel; each touches only its
	// own store shard, segment writer and meters.
	start = time.Now()
	if err := forEachShard(shards, func(i int) error { return e.replayShard(i, &logs[i]) }); err != nil {
		return err
	}
	for i := range logs {
		e.recovered.ReplayedPoints += logs[i].replayed
		e.recovered.SkippedPoints += logs[i].skipped
	}
	e.recovered.Replay = time.Since(start)

	// 6. Open each shard's newest live generation for appending — a shard
	// with none starts one at its floor. Older generations stay closed:
	// they are replay-only history.
	e.wals = make([]atomic.Pointer[wal], shards)
	created := false
	for i := 0; i < shards; i++ {
		gen := e.man.WALFloor[i]
		if n := len(live[i]); n > 0 {
			gen = live[i][n-1]
		} else {
			created = true
		}
		f, err := e.fs.OpenFile(e.walGenPath(i, gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		e.wals[i].Store(newWAL(f, gen, logs[i].valid))
	}
	// A created log's name must outlive a power loss like the records
	// acknowledged into it.
	if created {
		if err := e.fs.SyncDir(filepath.Join(e.opts.Dir, "wal")); err != nil {
			return err
		}
	}

	// 7. Hand each recovered meter's sequence high-water mark — the highest
	// seq its checkpoint and records carry, skipped batches included — to
	// the store, where the next session's handshake ack reads it.
	for i := range logs {
		for m, mr := range logs[i].meters {
			if len(mr.tables) > 0 {
				e.store.RestoreSeq(m, mr.seq)
				e.recovered.Meters++
			}
		}
	}

	// 8. Segments that finished during the replay made their shards due a
	// checkpoint. A failed one leaves the replayed generations live, which
	// is where they already were.
	_ = e.checkpoint(e.allShards())
	return nil
}

// shardLog is one shard's share of recovery. The store and the WAL
// partition meters the same way, so no meter spans two shards: each shard's
// log verifies and replays independently of every other's, and the results
// merge afterwards.
type shardLog struct {
	files  []walFile
	recs   []walRecord
	valid  int64 // current generation's intact byte length
	meters map[uint64]*meterReplay
	// replayed and skipped are the shard's RecoveryStats.ReplayedPoints and
	// SkippedPoints.
	replayed, skipped int64
}

// walFile is one generation of a shard's log as read from disk.
type walFile struct {
	path    string
	gen     uint64
	raw     []byte
	current bool  // the newest live generation: the one appends continue
	valid   int64 // intact prefix length
	torn    bool  // bytes past valid are a torn tail to truncate
}

// meterReplay is one meter's recovery state.
type meterReplay struct {
	tables    []*symbolic.Table    // every table the log holds, in push order
	sealed    []server.SealedBlock // restored from segments, in spill order
	skip      int64                // segment-covered points the replay has yet to pass
	installed int                  // tables the segment restore installed
	pushed    int                  // table records replayed so far: the epoch + 1
	seq       uint64               // highest sequence number logged
	ckpt      *checkpoint          // the meter's checkpoint, when its log has one
}

func (sl *shardLog) meter(m uint64) *meterReplay {
	mr := sl.meters[m]
	if mr == nil {
		mr = &meterReplay{}
		sl.meters[m] = mr
	}
	return mr
}

// forEachShard runs fn for shards 0..n-1, at most GOMAXPROCS at a time,
// and returns the lowest-numbered shard's error, so which error Open
// reports does not depend on scheduling.
func forEachShard(n int, fn func(shard int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range n {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verify parses the shard's log generations — each file tolerates its own
// torn tail, damage anywhere else is corruption — and collects every
// meter's table history, which the segment restore needs up front, from its
// checkpoint and table records.
func (sl *shardLog) verify(st *server.Store, shard int) error {
	for fi := range sl.files {
		f := &sl.files[fi]
		recs, valid, torn, err := parseWAL(f.raw)
		if err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
		f.valid, f.torn = valid, torn
		if f.current {
			sl.valid = valid
		}
		sl.recs = append(sl.recs, recs...)
		for _, rec := range recs {
			typ, _, data, err := stripSeq(rec)
			if err != nil {
				return fmt.Errorf("%s: %w", f.path, err)
			}
			var m uint64
			var tables []*symbolic.Table
			switch typ {
			case recTable:
				var t *symbolic.Table
				if m, t, err = decodeTable(data); err != nil {
					return fmt.Errorf("%s: %w", f.path, err)
				}
				tables = []*symbolic.Table{t}
			case recCheckpoint:
				ck, err := decodeCheckpoint(data)
				if err != nil {
					return fmt.Errorf("%s: %w", f.path, err)
				}
				m, tables = ck.meterID, ck.tables
				// A checkpoint replaces everything its meter logged before
				// it, so it must come first: replay cannot rewind a meter.
				if mr := sl.meters[m]; mr != nil && (len(mr.tables) > 0 || mr.ckpt != nil) {
					return fmt.Errorf("%w: %s: checkpoint for meter %d after its other records", ErrWALCorrupt, f.path, m)
				}
				sl.meter(m).ckpt = ck
			default:
				continue
			}
			// A meter logged in another shard's file means the files were
			// swapped; replaying it here would race that shard's replay.
			if st.ShardFor(m) != shard {
				return fmt.Errorf("%w: %s holds a table for meter %d of shard %d", ErrWALCorrupt, f.path, m, st.ShardFor(m))
			}
			mr := sl.meter(m)
			mr.tables = append(mr.tables, tables...)
		}
	}
	return nil
}

// replayShard restores the shard's sealed chains, then replays its log
// through the normal ingest path, skipping each meter's segment-covered
// prefix. A checkpoint restarts its meter from the covered points it counts:
// its tables are pushed as its blocks reach their epochs, and its blocks
// replay like batches. A batch the segments fully cover is handled from its
// header alone — validated, its sequence number and epoch tracked, its
// points counted as skipped — and never unpacked; only each meter's one
// partially covered batch or block and the uncovered tail decode and
// append. Sequenced records ('t'/'b') replay like their legacy twins and
// also advance the meter's sequence high-water mark, skipped batches
// included: those were committed too.
func (e *Engine) replayShard(shard int, sl *shardLog) error {
	// Only the tables the restored blocks reference are installed here; the
	// replay pushes the rest in order.
	restore := make([]uint64, 0, len(sl.meters))
	for m, mr := range sl.meters {
		if len(mr.sealed) > 0 {
			restore = append(restore, m)
		}
	}
	slices.Sort(restore)
	for _, m := range restore {
		mr := sl.meters[m]
		maxEpoch := 0
		for _, b := range mr.sealed {
			maxEpoch = max(maxEpoch, b.Epoch)
		}
		if len(mr.tables) <= maxEpoch {
			return fmt.Errorf("%w: meter %d segments reference epoch %d but the log holds %d tables", ErrWALCorrupt, m, maxEpoch, len(mr.tables))
		}
		if err := e.store.RestoreMeter(m, mr.tables[:maxEpoch+1], mr.sealed); err != nil {
			return err
		}
		mr.installed = maxEpoch + 1
	}

	var ptsScratch []symbolic.SymbolPoint
	var symScratch []symbolic.Symbol
	for _, rec := range sl.recs {
		typ, seq, data, err := stripSeq(rec)
		if err != nil {
			return fmt.Errorf("shard %d wal: %w", shard, err)
		}
		switch typ {
		case recTable:
			// verify decoded this record into the meter's table history.
			m := binary.BigEndian.Uint64(data)
			mr := sl.meters[m]
			mr.seq = max(mr.seq, seq)
			if err := e.pushReplayed(m, mr); err != nil {
				return err
			}
		case recCheckpoint:
			// verify decoded the checkpoint and made sure it is its meter's
			// first record.
			m := binary.BigEndian.Uint64(data)
			mr := sl.meters[m]
			ck := mr.ckpt
			if mr.skip < ck.covered {
				return fmt.Errorf("%w: meter %d checkpoint counts %d segment-covered points, the segments hold %d", ErrWALCorrupt, m, ck.covered, mr.skip)
			}
			mr.skip -= ck.covered
			sl.skipped += ck.covered
			mr.seq = max(mr.seq, ck.seq)
			for bi := range ck.blocks {
				b := &ck.blocks[bi]
				for mr.pushed <= b.epoch {
					if err := e.pushReplayed(m, mr); err != nil {
						return err
					}
				}
				if b.epoch != mr.pushed-1 {
					return fmt.Errorf("%w: meter %d checkpoint block under epoch %d after epoch %d", ErrWALCorrupt, m, b.epoch, mr.pushed-1)
				}
				if mr.skipWhole(sl, b.n) {
					continue
				}
				ptsScratch, symScratch = b.points(ptsScratch, symScratch)
				if err := e.appendReplayed(sl, m, mr, ptsScratch); err != nil {
					return err
				}
			}
			for mr.pushed < len(ck.tables) {
				if err := e.pushReplayed(m, mr); err != nil {
					return err
				}
			}
		case recBatch:
			br, err := decodeBatchHeader(data)
			if err != nil {
				return fmt.Errorf("shard %d wal: %w", shard, err)
			}
			mr := sl.meter(br.meterID)
			mr.seq = max(mr.seq, seq)
			if int(br.epoch) != mr.pushed-1 {
				return fmt.Errorf("%w: meter %d batch under epoch %d, log position implies %d", ErrWALCorrupt, br.meterID, br.epoch, mr.pushed-1)
			}
			if mr.skipWhole(sl, br.count) {
				continue
			}
			br, ptsScratch, symScratch, err = decodeBatch(data, ptsScratch, symScratch)
			if err != nil {
				return fmt.Errorf("shard %d wal: %w", shard, err)
			}
			if err := e.appendReplayed(sl, br.meterID, mr, br.pts); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unknown record type %#x in shard %d wal", ErrWALCorrupt, rec.typ, shard)
		}
	}
	// Segments holding points the log no longer reaches means the WAL was
	// damaged or swapped — refuse rather than serve a silently shorter tail.
	for m, mr := range sl.meters {
		if mr.skip > 0 {
			return fmt.Errorf("%w: meter %d segments hold %d points past the end of the log", ErrWALCorrupt, m, mr.skip)
		}
	}
	return nil
}

// skipWhole passes n points the segments fully cover, reporting whether it
// did; otherwise the points must be unpacked and appended.
func (mr *meterReplay) skipWhole(sl *shardLog, n int) bool {
	if mr.skip < int64(n) {
		return false
	}
	mr.skip -= int64(n)
	sl.skipped += int64(n)
	return true
}

// appendReplayed appends the points of a batch or checkpoint block past the
// segment-covered ones still to skip.
func (e *Engine) appendReplayed(sl *shardLog, m uint64, mr *meterReplay, pts []symbolic.SymbolPoint) error {
	pts = pts[mr.skip:]
	sl.skipped += mr.skip
	mr.skip = 0
	if err := e.ensureMeter(m); err != nil {
		return err
	}
	if _, err := e.store.Append(m, pts); err != nil {
		return replayErr(err)
	}
	sl.replayed += int64(len(pts))
	return nil
}

// pushReplayed replays the meter's next table push; the segment restore
// already installed the first mr.installed.
func (e *Engine) pushReplayed(m uint64, mr *meterReplay) error {
	mr.pushed++
	if mr.pushed <= mr.installed {
		return nil
	}
	if mr.pushed > len(mr.tables) {
		return fmt.Errorf("%w: meter %d pushes table %d of %d", ErrWALCorrupt, m, mr.pushed, len(mr.tables))
	}
	if err := e.ensureMeter(m); err != nil {
		return err
	}
	if err := e.store.PushTable(m, mr.tables[mr.pushed-1]); err != nil {
		return replayErr(err)
	}
	return nil
}

// unwind releases everything a failed recover() opened — WAL fds, segment
// writer fds, mappings — so a failed Open leaks nothing.
func (e *Engine) unwind() {
	for i := range e.wals {
		if w := e.wals[i].Load(); w != nil {
			w.close()
		}
	}
	for _, sw := range e.segs {
		if sw != nil && sw.f != nil {
			sw.f.Close()
			sw.f = nil
		}
	}
	e.releaseMaps()
}

// replayErr classifies a store error hit while re-applying a log record.
// The store's validation errors mean the log's *content* is inconsistent
// with itself — that is corruption. Anything else (the respill path's
// segment I/O failing with a full disk, say) is an environmental failure on
// an intact log and must not be reported as damage: telling an operator the
// WAL is corrupt invites deleting a healthy one.
func replayErr(err error) error {
	for _, verr := range []error{server.ErrBadSymbol, server.ErrNoTable, server.ErrUnknownMeter, server.ErrDuplicateMeter} {
		if errors.Is(err, verr) {
			return fmt.Errorf("%w: replay: %v", ErrWALCorrupt, err)
		}
	}
	return fmt.Errorf("storage: replay: %w", err)
}

// ensureMeter registers a meter seen first in the WAL (no live session
// exists during replay, so the session slot is released immediately).
func (e *Engine) ensureMeter(meterID uint64) error {
	if _, ok := e.store.Meter(meterID); ok {
		return nil
	}
	if err := e.store.StartSession(meterID); err != nil {
		return err
	}
	e.store.EndSession(meterID)
	return nil
}

// SealedBlock implements server.SealSink by routing the block to its shard's
// segment writer (called under that shard's store lock). A spill failure is
// NOT a seal failure: the WAL already covers every point in the block, so
// the engine keeps the heap payload, counts the fallback, and lets the
// probe re-enable spilling when the directory recovers. Ingest keeps its
// durability promise either way. Segments must hold a prefix of each
// meter's chain — the prefix recovery restores and a checkpoint counts as
// covered — so a meter's blocks that stayed on the heap are held, and once
// spilling works again they spill, oldest first, before its next block.
func (e *Engine) SealedBlock(meterID uint64, blk server.SealedBlock) ([]byte, error) {
	sw := e.segs[e.store.ShardFor(meterID)]
	if !e.health.spillDisabled.Load() {
		err := sw.spillHeld(meterID)
		if err == nil {
			var adopted []byte
			if adopted, err = sw.SealedBlock(meterID, blk); err == nil {
				return adopted, nil
			}
		}
		e.disableSpill(err)
	}
	sw.held[meterID] = append(sw.held[meterID], blk)
	e.health.spillFallbacks.Add(1)
	return blk.Payload, nil
}

// --- sessions and sequenced writes (server.Ingest) ----------------------

// ErrClosed reports writes after Close.
var ErrClosed = errors.New("storage: engine closed")

// StartSession delegates to the store (sessions are not durable state).
// A degraded engine refuses new sessions up front — the client learns
// immediately instead of on its first batch.
func (e *Engine) StartSession(meterID uint64) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if r := e.health.refuse.Load(); r != nil {
		return r.err
	}
	return e.store.StartSession(meterID)
}

// EndSession delegates to the store.
func (e *Engine) EndSession(meterID uint64) { e.store.EndSession(meterID) }

// Reserve delegates to the store.
func (e *Engine) Reserve(meterID uint64, n int) error { return e.store.Reserve(meterID, n) }

// LastSeq reports the meter's committed sequence high-water mark, which
// the store owns — 0 when the meter is unknown or all of its history
// predates sequencing.
func (e *Engine) LastSeq(meterID uint64) uint64 { return e.store.LastSeq(meterID) }

// PushTableSeq logs and commits a table push under a session sequence
// number, in the three steps every sequenced write takes. The store admits
// it — unknown meter, missing table, duplicate or gap, and for a batch its
// emptiness and symbol levels — so a rejected write never reaches the log:
// replay must be able to re-apply every logged record. The record is
// logged with its seq, which is how recovery restores the high-water mark;
// for a table it must precede every batch the table decodes. Then the
// store commits it and advances the mark, only once the whole write is in,
// so a refused or failed write stays retryable under the same seq. A
// duplicate is acked before the degraded refusal is checked on purpose:
// acking an already-durable write is truthful even when the engine cannot
// accept new ones.
func (e *Engine) PushTableSeq(meterID, seq uint64, t *symbolic.Table) (bool, error) {
	if e.closed.Load() {
		return false, ErrClosed
	}
	if dup, err := e.store.AdmitTable(meterID, seq); dup || err != nil {
		return dup, err
	}
	if r := e.health.refuse.Load(); r != nil {
		return false, r.err
	}
	shard := e.store.ShardFor(meterID)
	defer e.checkpointIfDue(shard)
	e.gates[shard].mu.RLock()
	defer e.gates[shard].mu.RUnlock()
	if _, err := e.walAppend(shard, func(w *wal) (int64, error) {
		return w.appendTableSeq(meterID, seq, t)
	}); err != nil {
		return false, err
	}
	return false, e.store.CommitTable(meterID, seq, t)
}

// AppendSeq is PushTableSeq for a symbol batch; the log write waits for
// durability per the sync mode before the store commits.
func (e *Engine) AppendSeq(meterID, seq uint64, pts []symbolic.SymbolPoint) (int, bool, error) {
	if e.closed.Load() {
		return 0, false, ErrClosed
	}
	epoch, level, dup, err := e.store.AdmitAppend(meterID, seq, pts)
	if dup || err != nil {
		return 0, dup, err
	}
	if r := e.health.refuse.Load(); r != nil {
		return 0, false, r.err
	}
	shard := e.store.ShardFor(meterID)
	defer e.checkpointIfDue(shard)
	e.gates[shard].mu.RLock()
	defer e.gates[shard].mu.RUnlock()
	if _, err := e.walAppend(shard, func(w *wal) (int64, error) {
		return w.appendBatchSeq(meterID, seq, epoch, level, pts)
	}); err != nil {
		return 0, false, err
	}
	n, err := e.store.CommitAppend(meterID, seq, pts)
	return n, false, err
}

// walAppend writes one record through the shard's current log and, under
// SyncAlways, waits for its covering fsync, classifying failures. The
// caller holds the shard's gate, so the log cannot rotate under the write.
//
//   - write fails → the durability layer is broken: degrade and return the
//     typed refusal. (A log poisoned by an earlier failure refuses too; a
//     heal replaces it before ingest is readmitted.)
//   - fsync fails → the record's durability is unknowable and the fsyncgate
//     rule forbids retrying the fsync (the kernel may have dropped the
//     dirty pages — a second, succeeding fsync would cover nothing): fail
//     the batch unacknowledged and degrade. The record stays in the log; if
//     it did reach disk it may legitimately replay after a crash, which is
//     exactly the contract of an *unacknowledged* write (at-most-once is
//     the client's retry discipline, the store never acks it twice).
func (e *Engine) walAppend(shard int, write func(*wal) (int64, error)) (int64, error) {
	w := e.wals[shard].Load()
	start := time.Now()
	end, err := write(w)
	e.met.walAppendLat.Since(start)
	if err != nil {
		if !errors.Is(err, errWALPoisoned) {
			e.health.walWriteFailures.Add(1)
		}
		e.degrade("wal append", err)
		if r := e.health.refuse.Load(); r != nil {
			return 0, r.err
		}
		return 0, err
	}
	if e.opts.Sync == SyncAlways {
		syncStart := time.Now()
		err := w.syncTo(end)
		e.met.fsyncLat.Since(syncStart)
		if err != nil {
			e.health.fsyncFailures.Add(1)
			e.degrade("wal fsync", err)
			return 0, err
		}
	}
	return end, nil
}

// --- Flush / Close --------------------------------------------------------

// Flush makes everything committed so far durable and fast to recover:
// every WAL is fsynced, every open segment is finished into the manifest
// (so the next Open restores sealed data from footers instead of replaying
// it), and the shards whose segments finished rotate their logs onto a
// checkpoint. The store stays fully usable afterwards — published blocks
// keep aliasing their mappings and the next seal opens a fresh segment.
// Ingest must be quiesced while Flush runs.
func (e *Engine) Flush() error {
	var errs []error
	for i := range e.wals {
		if w := e.wals[i].Load(); w != nil {
			errs = append(errs, w.syncTo(w.written.Load()))
		}
	}
	for _, sw := range e.segs {
		// Held blocks spill first, so the checkpoint after the finish need
		// not carry them. Failing to is a spill failure, not a flush one:
		// the logs still cover them.
		if !e.health.spillDisabled.Load() {
			for _, m := range slices.Sorted(maps.Keys(sw.held)) {
				if err := sw.spillHeld(m); err != nil {
					e.disableSpill(err)
					break
				}
			}
		}
		errs = append(errs, sw.finish())
	}
	errs = append(errs, e.checkpoint(e.allShards()))
	return errors.Join(errs...)
}

// Close flushes, closes the logs and releases the segment mappings. The
// store must not be queried afterwards: spilled blocks alias the mappings
// Close unmaps.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.stop != nil {
		close(e.stop)
		e.syncWG.Wait()
	}
	errs := []error{e.Flush()}
	for i := range e.wals {
		if w := e.wals[i].Load(); w != nil {
			errs = append(errs, w.close())
		}
	}
	e.releaseMaps()
	return errors.Join(errs...)
}

// Abandon releases the engine's file handles, goroutines and mappings
// WITHOUT flushing or finishing anything — the programmatic stand-in for a
// crash: on-disk state is exactly what a kill at this instant would leave
// (open segments without footers, WAL synced only as far as the mode got).
// The store must not be used afterwards. Tests and recovery benchmarks use
// it to produce crash-shaped directories without leaking descriptors.
func (e *Engine) Abandon() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	if e.stop != nil {
		close(e.stop)
		e.syncWG.Wait()
	}
	e.unwind()
}

// --- log rotation ----------------------------------------------------------

func (e *Engine) allShards() []int {
	all := make([]int, len(e.gates))
	for i := range all {
		all[i] = i
	}
	return all
}

// checkpointIfDue runs the checkpoint a write's segment finish made due,
// after the write released the shard's gate. Its error is dropped: the
// older generations simply stay live until the next finished segment tries
// again.
func (e *Engine) checkpointIfDue(shard int) {
	if e.gates[shard].due.Load() {
		_ = e.checkpoint([]int{shard})
	}
}

// checkpoint rotates each of shards (ascending) that is due onto a fresh
// log generation opening with its checkpoint, all under one manifest
// barrier. A shard whose checkpoint cannot be built keeps its generations.
// Nothing rotates while the engine is not healthy — a heal owns the logs
// then — and the shards stay due, so their first write after the heal
// checkpoints them.
func (e *Engine) checkpoint(shards []int) error {
	var due []int
	for _, i := range shards {
		g := &e.gates[i]
		if !g.due.Load() {
			continue
		}
		// Only a segment finish sets due, and it runs inside a write that
		// holds the gate, so under the exclusive gate due cannot change.
		g.mu.Lock()
		if g.due.Load() {
			due = append(due, i)
		} else {
			g.mu.Unlock()
		}
	}
	defer func() {
		for _, i := range due {
			e.gates[i].mu.Unlock()
		}
	}()
	if len(due) == 0 || e.health.refuse.Load() != nil {
		return nil
	}
	for _, i := range due {
		e.gates[i].due.Store(false)
	}
	var errs []error
	var ready []int
	var ckpts [][]byte
	for _, i := range due {
		ck, err := e.encodeCheckpoint(i)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ready = append(ready, i)
		ckpts = append(ckpts, ck)
	}
	if len(ready) > 0 {
		errs = append(errs, e.rotate(ready, ckpts))
	}
	return errors.Join(errs...)
}

// encodeCheckpoint builds the shard's checkpoint: one 'C' record per meter
// with a table, carrying its table history and high-water mark from the
// store and the blocks after the points the shard's segments cover. The
// caller holds the shard's gate exclusively, so the store and the covered
// counts agree with each other and with the logs the checkpoint replaces.
func (e *Engine) encodeCheckpoint(shard int) ([]byte, error) {
	covered := e.segs[shard].covered
	var buf []byte
	var views []server.BlockView
	for _, m := range e.store.ShardMeters(shard) {
		tables, seq := m.IngestState()
		if len(tables) == 0 {
			continue // no table yet: nothing of the meter is durable
		}
		ck := checkpoint{meterID: m.ID(), seq: seq, covered: covered[m.ID()], tables: tables}
		var tail *ckptBlock
		views = m.CollectRange(math.MinInt64, math.MaxInt64, views[:0], func(bv server.BlockView) {
			b := blockOf(bv)
			b.packed = slices.Clone(b.packed) // a tail view must not outlive the callback
			tail = &b
		})
		var at int64
		next := 0
		for ; next < len(views) && at < ck.covered; next++ {
			at += int64(views[next].N)
		}
		if at != ck.covered {
			return nil, fmt.Errorf("storage: meter %d: segments cover %d points, not a block prefix of its %d", m.ID(), ck.covered, m.TotalSymbols())
		}
		for _, bv := range views[next:] {
			ck.blocks = append(ck.blocks, blockOf(bv))
			at += int64(bv.N)
		}
		if tail != nil {
			ck.blocks = append(ck.blocks, *tail)
			at += int64(tail.n)
		}
		if at != int64(m.TotalSymbols()) {
			return nil, fmt.Errorf("storage: meter %d: checkpoint reaches %d of %d points", m.ID(), at, m.TotalSymbols())
		}
		var err error
		if buf, err = appendCheckpoint(buf, &ck); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func blockOf(bv server.BlockView) ckptBlock {
	used := (bv.N*bv.Level + 7) / 8
	return ckptBlock{epoch: bv.Epoch, level: bv.Level, n: bv.N, firstT: bv.FirstT, stride: bv.Stride, packed: bv.Payload[:used]}
}

// rotate moves shards (ascending) onto the next log generation. It is the
// one way a generation starts, shared by checkpoints and heals:
//
//  1. create each shard's file at the new generation; with ckpts, write the
//     shard's checkpoint into it and fsync it;
//  2. fsync the log directory, so the new files' names survive a power
//     loss before any manifest points at them;
//  3. commit the manifest: the new generation exists once this lands, and
//     with ckpts the listed shards' floors move up to it. Until then the new
//     files are orphans recovery deletes;
//  4. swap each shard's log to the new file and close the old one;
//  5. with ckpts, unlink the generations below the new floors once the
//     manifest is durable. A failed unlink is retried at the shard's next
//     checkpoint, and recovery deletes whatever lies below a floor.
//
// A manifest that was renamed into place but not made durable swaps the
// logs, unlinks nothing and degrades the engine: writes acknowledged into a
// generation the previous manifest does not know would be lost if power
// loss brought that manifest back, so ingest waits for a heal to write a
// durable one.
//
// A heal passes no checkpoints: its generations start empty and the old
// ones stay live as replay history. The caller holds every listed shard's
// gate exclusively, so no write straddles the swap.
func (e *Engine) rotate(shards []int, ckpts [][]byte) error {
	e.manMu.Lock()
	defer e.manMu.Unlock()
	gen := e.man.WALGen + 1
	files := make([]File, 0, len(shards))
	abort := func(err error) error {
		for j, f := range files {
			f.Close()
			e.fs.Remove(e.walGenPath(shards[j], gen))
		}
		return err
	}
	for j, i := range shards {
		f, err := e.fs.OpenFile(e.walGenPath(i, gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
		if err != nil {
			return abort(err)
		}
		files = append(files, f)
		if ckpts == nil {
			continue
		}
		if _, err := f.Write(ckpts[j]); err != nil {
			return abort(err)
		}
	}
	// The checkpoints' fsyncs overlap: a Close that checkpoints every shard
	// would otherwise wait out one journal commit per shard in turn.
	if ckpts != nil {
		if err := forEachShard(len(files), func(j int) error { return files[j].Sync() }); err != nil {
			return abort(err)
		}
	}
	if err := e.fs.SyncDir(filepath.Join(e.opts.Dir, "wal")); err != nil {
		return abort(err)
	}

	prev := e.man
	e.man.WALGen = gen
	if ckpts != nil {
		e.man.WALFloor = slices.Clone(prev.WALFloor)
		for _, i := range shards {
			e.man.WALFloor[i] = gen
		}
	}
	err := writeManifest(e.fs, e.opts.Dir, e.man)
	if err != nil && !errors.Is(err, errManifestUnsynced) {
		e.man = prev
		return abort(err)
	}
	// From here the new manifest is the one a restart reads. Unless it is
	// also durable, the old generations are kept: power loss could bring
	// the previous manifest back.
	e.walGen.Store(gen)
	if err != nil {
		e.degrade("manifest", err)
	}

	for j, i := range shards {
		var start int64
		if ckpts != nil {
			start = int64(len(ckpts[j]))
		}
		old := e.wals[i].Swap(newWAL(files[j], gen, start))
		if ckpts == nil {
			// The old log stays replay history, so one last best-effort
			// fsync narrows the SyncOff/Group OS-crash window. Errors are
			// expected — it lives on the device that just failed — and
			// change nothing: its records up to any tear replay fine.
			_ = old.syncTo(old.written.Load())
		}
		// A failed close loses nothing: what the old log holds is durable,
		// replayed from disk, or in the checkpoint.
		_ = old.close()
		size := old.written.Load()
		e.older[i] = append(e.older[i], walGenFile{gen: old.gen, size: size})
		e.walOlder.Add(size)
		if ckpts == nil || err != nil {
			continue
		}
		kept := e.older[i][:0]
		for _, g := range e.older[i] {
			if err := e.fs.Remove(e.walGenPath(i, g.gen)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				kept = append(kept, g)
				continue
			}
			e.walOlder.Add(-g.size)
		}
		e.older[i] = kept
	}
	return err
}

func (e *Engine) trackMapping(m []byte) {
	if m == nil {
		return
	}
	e.mapsMu.Lock()
	e.maps = append(e.maps, m)
	e.mapsMu.Unlock()
}

func (e *Engine) releaseMaps() {
	e.mapsMu.Lock()
	defer e.mapsMu.Unlock()
	for _, m := range e.maps {
		e.fs.Munmap(m)
	}
	e.maps = nil
}

// addSegment records a finished segment in the manifest, atomically. A
// transient manifest-write failure retries with capped backoff; exhausting
// the retries degrades the engine. Either way the in-memory manifest keeps
// the entry — the segment file is fully durable (finish fsynced it before
// calling here), so any later successful manifest write may list it; until
// one does, recovery treats it as an orphan and re-derives its blocks from
// the WAL.
func (e *Engine) addSegment(ms manifestSegment) error {
	e.manMu.Lock()
	defer e.manMu.Unlock()
	e.man.Segments = append(e.man.Segments, ms)
	var err error
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		if err = writeManifest(e.fs, e.opts.Dir, e.man); err == nil {
			return nil
		}
		if attempt == 2 {
			break
		}
		e.health.manifestRetries.Add(1)
		time.Sleep(backoff)
		backoff *= 4
	}
	e.health.manifestFailures.Add(1)
	e.degrade("manifest", err)
	return err
}

// groupSync is the SyncGroup background fsync loop: every interval, any
// shard log with unsynced records gets one fsync. A failed fsync degrades
// the engine immediately — the error used to stick silently to the wal and
// surface one lost batch later; now Health() and the ingest refusal carry
// it the moment it happens.
func (e *Engine) groupSync() {
	defer e.syncWG.Done()
	t := time.NewTicker(groupSyncInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
		}
		for i := range e.wals {
			w := e.wals[i].Load()
			if w == nil || !w.dirty() {
				continue
			}
			start := time.Now()
			err := w.syncTo(w.written.Load())
			e.met.fsyncLat.Since(start)
			if err != nil {
				if e.wals[i].Load() == w {
					e.health.fsyncFailures.Add(1)
					e.degrade("wal group fsync", err)
				}
			}
		}
	}
}

// DiskUsage reports the data directory's current WAL and segment byte
// totals (the measured disk cost next to the store's MemoryFootprint).
func (e *Engine) DiskUsage() (walBytes, segBytes int64, err error) {
	err = filepath.WalkDir(e.opts.Dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		switch filepath.Ext(path) {
		case ".wal":
			walBytes += info.Size()
		case ".seg":
			segBytes += info.Size()
		}
		return nil
	})
	return walBytes, segBytes, err
}
