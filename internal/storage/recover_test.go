package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// frameRecord frames body (type byte first) as one CRC-valid log record.
func frameRecord(body []byte) []byte {
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	rec = binary.BigEndian.AppendUint32(rec, ^uint32(len(body)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.Checksum(body, crcC))
	return append(rec, body...)
}

// TestLevel64TableRecordFailsLoudly: a CRC-valid table record whose table
// claims level 64 — the payload of the 16-byte wire frame that used to
// crash the server — must fail recovery with ErrWALCorrupt, not panic.
func TestLevel64TableRecordFailsLoudly(t *testing.T) {
	body := []byte{recTable}
	body = binary.BigEndian.AppendUint64(body, 1)
	body = append(body, 'T', 64, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	dir := walDir(t, append(buildWALFixture(t), frameRecord(body)...))
	if _, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open: got %v, want ErrWALCorrupt", err)
	}
}

// TestSwappedShardLogsFailLoudly: shards replay in parallel on the promise
// that a shard's log holds only that shard's meters, so logs swapped
// between shards must be refused rather than replayed into another shard's
// meters.
func TestSwappedShardLogsFailLoudly(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(Options{Dir: dir, Shards: 2, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, eng, testTable(t), testMeters, 3)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := currentLog(t, dir, 0), currentLog(t, dir, 1)
	tmp := filepath.Join(dir, "swap")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(Options{Dir: dir, Shards: 2, Sync: SyncOff}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open with swapped shard logs: got %v, want ErrWALCorrupt", err)
	}
}

// TestSegmentCoveredHighWaterMark pins the trap in skipping covered batches
// by header: the sequence high-water mark is rebuilt only from WAL records,
// so a batch the segments cover must still advance it. Each case leaves the
// meter's sequenced batches covered up to an exact batch boundary or part
// way into one, crashes after the segment finished but before its
// checkpoint (so the log is whole and the batches are skipped by header),
// reopens, and checks the mark, duplicate suppression and the next commit.
// The last case shuts down cleanly instead, so the mark comes from the
// checkpoint alone.
func TestSegmentCoveredHighWaterMark(t *testing.T) {
	table := testTable(t)
	cases := []struct {
		name        string
		batch, n    int  // points per sequenced batch, sequenced batches
		legacyAfter bool // an unsequenced batch follows, sealing the last block
		replayed    int64
		clean       bool // Close, which checkpoints, instead of a crash
	}{
		// 1024 points end on a block boundary; the last block is the live
		// tail, so its 4 batches replay.
		{"whole-blocks", 128, 8, false, 512, false},
		// One more point seals that block too: every sequenced batch is
		// covered and the mark comes from skipped records alone.
		{"all-covered", 128, 8, true, 1, false},
		// 576 points: batch 6 is covered for 32 points, replayed for 64.
		{"partial-batch", 96, 6, false, 64, false},
		// As all-covered, but the log rotated onto a checkpoint at Close.
		{"checkpointed", 128, 8, true, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const m = 7
			opts := Options{Dir: dir, Shards: 4, Sync: SyncOff, SegmentBytes: 64 << 10}
			if !tc.clean {
				opts.FS = noRotationFS{}
			}
			eng, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.StartSession(m); err != nil {
				t.Fatal(err)
			}
			if dup, err := eng.PushTableSeq(m, 1, table); dup || err != nil {
				t.Fatalf("PushTableSeq: dup=%v err=%v", dup, err)
			}
			pts := func(i int) []symbolic.SymbolPoint {
				p := make([]symbolic.SymbolPoint, tc.batch)
				for j := range p {
					p[j] = symbolic.SymbolPoint{T: int64(i*tc.batch+j) * 900, S: table.Encode(float64((i*97 + j*13) % 4000))}
				}
				return p
			}
			for i := 0; i < tc.n; i++ {
				if _, dup, err := eng.AppendSeq(m, uint64(2+i), pts(i)); dup || err != nil {
					t.Fatalf("AppendSeq %d: dup=%v err=%v", i, dup, err)
				}
			}
			if tc.legacyAfter {
				AppendLegacy(t, eng, m, pts(tc.n)[:1])
			}
			last := uint64(1 + tc.n)
			// The log records the case relies on: its table push, its
			// sequenced batches and the unsequenced one — or, after a
			// checkpoint, the meter's one checkpoint record.
			records := 1 + tc.n
			if tc.legacyAfter {
				records++
			}
			if tc.clean {
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				records = 1
			} else {
				if err := eng.Flush(); err == nil {
					t.Fatal("Flush rotated the log past a refused generation")
				}
				eng.Abandon()
			}

			re := openTest(t, dir, SyncOff)
			defer re.Close()
			rs := re.Recovery()
			if rs.ReplayedPoints != tc.replayed || rs.SkippedPoints == 0 || rs.WALRecords != records {
				t.Fatalf("replayed %d (want %d), skipped %d, %d log records (want %d): the case does not cover what it claims",
					rs.ReplayedPoints, tc.replayed, rs.SkippedPoints, rs.WALRecords, records)
			}
			if got := re.LastSeq(m); got != last {
				t.Fatalf("recovered LastSeq: %d, want %d", got, last)
			}
			if err := re.StartSession(m); err != nil {
				t.Fatal(err)
			}
			before := re.Store().TotalSymbols()
			if _, dup, err := re.AppendSeq(m, last, pts(tc.n-1)); !dup || err != nil {
				t.Fatalf("resent seq %d: dup=%v err=%v, want a duplicate", last, dup, err)
			}
			if got := re.Store().TotalSymbols(); got != before {
				t.Fatalf("duplicate committed: %d symbols, was %d", got, before)
			}
			if _, dup, err := re.AppendSeq(m, last+1, pts(tc.n+1)); dup || err != nil {
				t.Fatalf("next seq %d: dup=%v err=%v", last+1, dup, err)
			}
		})
	}
}

// copyDir copies a data directory tree into a fresh temp dir.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// openAtProcs opens dir with GOMAXPROCS set to procs, restoring it after.
func openAtProcs(t *testing.T, dir string, procs int) *Engine {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	eng, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncOff, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestParallelRecoveryMatchesSerial recovers copies of one crash-shaped,
// multi-shard directory — finished segments, an unfinished segment, live
// tails, a mid-stream table change and a torn tail — one shard at a time
// and on four workers. Both must agree on every count, every meter's
// reconstructed stream and every sequence high-water mark.
func TestParallelRecoveryMatchesSerial(t *testing.T) {
	table := testTable(t)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i * 31 % 2500)
	}
	coarse, err := symbolic.Learn(symbolic.MethodMedian, vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng := openTest(t, dir, SyncOff)
	var meters []uint64
	for m := uint64(1); m <= 12; m++ {
		meters = append(meters, m)
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.PushTableSeq(m, 1, table); err != nil {
			t.Fatal(err)
		}
	}
	seq := map[uint64]uint64{}
	for idx := 0; idx < 45; idx++ {
		if idx == 30 {
			if err := eng.Flush(); err != nil { // finished segments
				t.Fatal(err)
			}
		}
		for _, m := range meters {
			cur := table
			if m%3 == 0 && idx >= 20 {
				cur = coarse
				if idx == 20 {
					if _, err := eng.PushTableSeq(m, 2+uint64(idx), coarse); err != nil {
						t.Fatal(err)
					}
				}
			}
			s := 2 + uint64(idx)
			if m%3 == 0 && idx >= 20 {
				s++
			}
			if _, _, err := eng.AppendSeq(m, s, genBatch(m, idx, cur)); err != nil {
				t.Fatalf("meter %d batch %d: %v", m, idx, err)
			}
			seq[m] = s
		}
	}
	eng.Abandon() // crash shape: the post-Flush segment has no footer
	f, err := os.OpenFile(currentLog(t, dir, 0), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, 0xff}); err != nil { // torn header
		t.Fatal(err)
	}
	f.Close()

	serial := openAtProcs(t, copyDir(t, dir), 1)
	defer serial.Close()
	parallel := openAtProcs(t, copyDir(t, dir), 4)
	defer parallel.Close()

	rs, rp := serial.Recovery(), parallel.Recovery()
	if rs.TornTails != 1 || rs.Segments == 0 || rs.SkippedPoints == 0 || rs.ReplayedPoints == 0 {
		t.Fatalf("fixture does not exercise every recovery path: %+v", rs)
	}
	rs.ReadVerify, rs.SegmentLoad, rs.Replay = 0, 0, 0
	rp.ReadVerify, rp.SegmentLoad, rp.Replay = 0, 0, 0
	if rs != rp {
		t.Fatalf("recovery stats differ:\n serial   %+v\n parallel %+v", rs, rp)
	}
	for _, m := range meters {
		if a, b := serial.LastSeq(m), parallel.LastSeq(m); a != seq[m] || b != seq[m] {
			t.Fatalf("meter %d LastSeq: serial %d, parallel %d, want %d", m, a, b, seq[m])
		}
		a, aok := serial.Store().Snapshot(m)
		b, bok := parallel.Store().Snapshot(m)
		if !aok || !bok || !sameSnapshot(a, b) {
			t.Fatalf("meter %d: snapshots differ", m)
		}
	}
}

// sameSnapshot compares two meter states bit for bit (NaN values and the
// tables' wire form included).
func sameSnapshot(a, b server.MeterState) bool {
	if a.ID != b.ID || a.Sessions != b.Sessions || len(a.Tables) != len(b.Tables) || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Tables {
		if string(symbolic.MarshalTable(a.Tables[i])) != string(symbolic.MarshalTable(b.Tables[i])) {
			return false
		}
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.T != q.T || p.S != q.S || math.Float64bits(p.V) != math.Float64bits(q.V) {
			return false
		}
	}
	return true
}

// currentLog returns the path of the shard's newest log generation in dir:
// the file its appends go to.
func currentLog(t testing.TB, dir string, shard int) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	path, newest := "", uint64(0)
	for _, ent := range entries {
		if s, g, ok := parseWALName(ent.Name()); ok && s == shard && (path == "" || g > newest) {
			path, newest = filepath.Join(dir, "wal", ent.Name()), g
		}
	}
	if path == "" {
		t.Fatalf("no log for shard %d in %s", shard, dir)
	}
	return path
}

// noRotationFS refuses to create log generations, which leaves a directory
// as a crash between a segment finish and the checkpoint it made due would:
// the segment listed, the log it covers still whole.
type noRotationFS struct{ OsFS }

func (noRotationFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&os.O_EXCL != 0 && filepath.Ext(name) == ".wal" {
		return nil, errors.New("log rotation refused")
	}
	return OsFS{}.OpenFile(name, flag, perm)
}

// buildCoveredFixture is buildWALFixture with a segment-covered prefix: a
// single-shard directory whose finished segments hold the first blocks of
// both meters, so recovery skips those batches by header. It returns the
// directory's manifest and segment files (by relative path) and the log.
func buildCoveredFixture(t testing.TB) (files map[string][]byte, walBytes []byte) {
	t.Helper()
	dir := t.TempDir()
	table := testTable(t)
	eng, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff, SegmentBytes: 64 << 10, FS: noRotationFS{}})
	if err != nil {
		t.Fatal(err)
	}
	meters := []uint64{1, 2}
	for _, m := range meters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.PushTableSeq(m, 1, table); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 0; idx < 14; idx++ {
		for _, m := range meters {
			if _, _, err := eng.AppendSeq(m, uint64(2+idx), genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Flush(); err == nil {
		t.Fatal("Flush rotated the log past a refused generation")
	}
	eng.Abandon()
	files = map[string][]byte{}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if filepath.Ext(path) == ".wal" {
			walBytes = data
		} else {
			files[rel] = data
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, walBytes
}

// FuzzCoveredWALReplay is FuzzWALReplay over a log whose prefix the
// segments cover, so the mutated log's intact records run the header-only
// skip, the partially covered batch and the decoded tail. The contract is
// the same: fail loudly, or recover a record prefix of the original log
// that keeps every record lying wholly before the damage. (Damage inside
// the covered prefix can only fail loudly: the segments then hold points
// the log no longer reaches.)
func FuzzCoveredWALReplay(f *testing.F) {
	files, raw := buildCoveredFixture(f)
	recs, _, _, err := parseWAL(raw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(0), byte(0), uint32(0))
	f.Add(uint32(len(raw)-3), byte(0xFF), uint32(0))
	f.Add(uint32(0), byte(0), uint32(len(raw)-7))
	f.Add(uint32(recs[len(recs)/2].end), byte(0x10), uint32(0))
	f.Add(uint32(40), byte(1), uint32(recs[2].end))
	f.Fuzz(func(t *testing.T, pos uint32, xor byte, trunc uint32) {
		mut := append([]byte(nil), raw...)
		damagedFrom := int64(len(mut)) + 1
		if trunc != 0 && int(trunc) < len(mut) {
			mut = mut[:trunc]
			damagedFrom = int64(trunc)
		}
		if xor != 0 && len(mut) > 0 {
			p := int(pos) % len(mut)
			mut[p] ^= xor
			damagedFrom = min(damagedFrom, int64(p))
		}
		dir := walDir(t, mut)
		for rel, data := range files {
			if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		eng, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncOff})
		if err != nil {
			return
		}
		defer eng.Close()
		match := -1
		for p := len(recs); p >= 0; p-- {
			if sameAggregates(t, eng.Store(), applyRecords(t, stripSeqs(t, recs), p)) {
				match = p
				break
			}
		}
		if match < 0 {
			t.Fatalf("recovered state matches no prefix of the original log (pos=%d xor=%#x trunc=%d)", pos, xor, trunc)
		}
		mustHave := 0
		for _, rec := range recs {
			if rec.end <= damagedFrom {
				mustHave++
			}
		}
		if match < mustHave {
			t.Fatalf("recovery kept %d records but %d lie wholly before the damage at %d (pos=%d xor=%#x trunc=%d)",
				match, mustHave, damagedFrom, pos, xor, trunc)
		}
	})
}

// stripSeqs rewrites sequenced records as their legacy twins, the form
// applyRecords replays.
func stripSeqs(t testing.TB, recs []walRecord) []walRecord {
	t.Helper()
	out := make([]walRecord, len(recs))
	for i, rec := range recs {
		typ, _, data, err := stripSeq(rec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = walRecord{typ: typ, data: data, end: rec.end}
	}
	return out
}
