package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"symmeter/internal/query"
	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// testTable learns the same k=16 table every storage test shares.
func testTable(t testing.TB) *symbolic.Table {
	t.Helper()
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i * 7919 % 4000)
	}
	return mustTable(vals)
}

// mustTable is testTable without a testing.TB, for the re-exec'd kill child.
func mustTable(vals []float64) *symbolic.Table {
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 16)
	if err != nil {
		panic(err)
	}
	return table
}

// genBatch builds the deterministic batch `idx` of a meter's stream: 96
// regular 15-minute points (with a stream gap every 7th batch, so block
// chains include stride breaks).
func genBatch(meterID uint64, idx int, table *symbolic.Table) []symbolic.SymbolPoint {
	base := int64(idx) * 96 * 900
	if idx%7 == 3 {
		base += 450 // gap: breaks the arithmetic progression between batches
	}
	pts := make([]symbolic.SymbolPoint, 96)
	for j := range pts {
		v := float64((int(meterID)*31 + idx*97 + j*13) % 4000)
		pts[j] = symbolic.SymbolPoint{T: base + int64(j)*900, S: table.Encode(v)}
	}
	return pts
}

// applyBatches drives ing with nBatches per meter, sequenced and
// interleaved across meters like concurrent sessions would.
func applyBatches(t testing.TB, si server.Ingest, table *symbolic.Table, meters []uint64, nBatches int) {
	t.Helper()
	ing := Sequenced{si}
	for _, m := range meters {
		if err := ing.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := ing.PushTable(m, table); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 0; idx < nBatches; idx++ {
		for _, m := range meters {
			if _, err := ing.Append(m, genBatch(m, idx, table)); err != nil {
				t.Fatalf("append meter %d batch %d: %v", m, idx, err)
			}
		}
	}
	for _, m := range meters {
		ing.EndSession(m)
	}
}

// oracleStore builds the plain in-memory store for the same batch sequence.
func oracleStore(t testing.TB, table *symbolic.Table, meters []uint64, nBatches int) *server.Store {
	t.Helper()
	st := server.NewStore(4)
	applyBatches(t, st, table, meters, nBatches)
	return st
}

// compareStores asserts bit-exact aggregate equivalence (Count, Sum, Min,
// Max, Histogram) between two stores for every meter over several windows,
// including ones that cut blocks on both ends.
func compareStores(t *testing.T, got, want *server.Store, meters []uint64) {
	t.Helper()
	if g, w := got.TotalSymbols(), want.TotalSymbols(); g != w {
		t.Fatalf("TotalSymbols: got %d, want %d", g, w)
	}
	ge, we := query.New(got), query.New(want)
	windows := [][2]int64{
		{0, math.MaxInt64},
		{5 * 900, 777 * 900},
		{100*900 + 1, 5000 * 900},
		{3 * 96 * 900, 9 * 96 * 900},
	}
	for _, m := range meters {
		for _, win := range windows {
			ga, gok := ge.Aggregate(m, win[0], win[1])
			wa, wok := we.Aggregate(m, win[0], win[1])
			if gok != wok {
				t.Fatalf("meter %d window %v: exists %v vs %v", m, win, gok, wok)
			}
			if ga.Count != wa.Count ||
				math.Float64bits(ga.Sum) != math.Float64bits(wa.Sum) ||
				math.Float64bits(ga.Min) != math.Float64bits(wa.Min) ||
				math.Float64bits(ga.Max) != math.Float64bits(wa.Max) {
				t.Fatalf("meter %d window %v: got %+v, want %+v", m, win, ga, wa)
			}
			var gh, wh query.Histogram
			if _, err := ge.HistogramInto(&gh, m, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := we.HistogramInto(&wh, m, win[0], win[1]); err != nil {
				t.Fatal(err)
			}
			if gh.Level != wh.Level || len(gh.Counts) != len(wh.Counts) {
				t.Fatalf("meter %d window %v: histogram shape %d/%d vs %d/%d", m, win, gh.Level, len(gh.Counts), wh.Level, len(wh.Counts))
			}
			for s := range gh.Counts {
				if gh.Counts[s] != wh.Counts[s] {
					t.Fatalf("meter %d window %v symbol %d: %d vs %d", m, win, s, gh.Counts[s], wh.Counts[s])
				}
			}
		}
	}
}

var testMeters = []uint64{1, 2, 17, 1017}

// openTest opens an engine over dir with small segments so tests exercise
// segment rollover, finish and multi-segment recovery.
func openTest(t testing.TB, dir string, mode SyncMode) *Engine {
	t.Helper()
	eng, err := Open(Options{Dir: dir, Shards: 4, Sync: mode, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRecoverAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	const nBatches = 40 // ~3840 points/meter: several sealed blocks + tail
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, nBatches)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir, SyncOff)
	defer re.Close()
	st := re.Recovery()
	if st.SegmentPoints == 0 {
		t.Errorf("clean close should restore sealed data from segments, got %+v", st)
	}
	if st.SkippedPoints != st.SegmentPoints {
		t.Errorf("replay skipped %d points, segments restored %d", st.SkippedPoints, st.SegmentPoints)
	}
	compareStores(t, re.Store(), oracleStore(t, table, testMeters, nBatches), testMeters)
}

func TestRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	const nBatches = 40
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, nBatches)
	// No Close, no Flush: the WAL holds everything via write(2), the open
	// segments have no footer and must be discarded + re-derived.
	re := openTest(t, dir, SyncOff)
	defer re.Close()
	compareStores(t, re.Store(), oracleStore(t, table, testMeters, nBatches), testMeters)
	if re.Recovery().ReplayedPoints == 0 {
		t.Error("crash recovery should replay points from the WAL")
	}
}

func TestRecoverAfterFlushThenMoreWrites(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, 25)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	// Keep writing after the checkpoint: a second epoch plus more batches.
	table2 := testTable(t)
	for _, m := range testMeters {
		if err := (Sequenced{eng}).PushTable(m, table2); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 25; idx < 40; idx++ {
		for _, m := range testMeters {
			if _, err := (Sequenced{eng}).Append(m, genBatch(m, idx, table2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash (no close).
	re := openTest(t, dir, SyncOff)
	defer re.Close()

	want := server.NewStore(4)
	for _, m := range testMeters {
		if err := want.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := want.PushTable(m, table); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 0; idx < 25; idx++ {
		for _, m := range testMeters {
			if _, err := want.Append(m, genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range testMeters {
		if err := want.PushTable(m, table2); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 25; idx < 40; idx++ {
		for _, m := range testMeters {
			if _, err := want.Append(m, genBatch(m, idx, table2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareStores(t, re.Store(), want, testMeters)
}

func TestRecoverTwiceAccumulates(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, table, testMeters, 20)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Second generation: recover, write more, close.
	eng2 := openTest(t, dir, SyncOff)
	for idx := 20; idx < 40; idx++ {
		for _, m := range testMeters {
			if _, err := (Sequenced{eng2}).Append(m, genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTest(t, dir, SyncOff)
	defer re.Close()
	compareStores(t, re.Store(), oracleStore(t, table, testMeters, 40), testMeters)
}

func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncGroup, SyncAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			table := testTable(t)
			eng := openTest(t, dir, mode)
			applyBatches(t, eng, table, testMeters[:2], 10)
			if mode == SyncGroup {
				time.Sleep(10 * time.Millisecond) // let the background syncer run once
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			re := openTest(t, dir, mode)
			defer re.Close()
			compareStores(t, re.Store(), oracleStore(t, table, testMeters[:2], 10), testMeters[:2])
		})
	}
}

func TestSpillBoundsResidentMemory(t *testing.T) {
	if !canMmap {
		t.Skip("no mmap on this platform: sealed payloads stay heap-resident")
	}
	dir := t.TempDir()
	table := testTable(t)
	const nBatches = 160 // ~15k points per meter
	eng := openTest(t, dir, SyncOff)
	defer eng.Close()
	applyBatches(t, eng, table, testMeters, nBatches)
	mem := oracleStore(t, table, testMeters, nBatches)

	persistBytes, pts := eng.Store().MemoryFootprint()
	memBytes, _ := mem.MemoryFootprint()
	if pts == 0 {
		t.Fatal("no points")
	}
	// The spilled store must not pay heap for sealed payloads: at level 4
	// they are 0.5 B/point, the dominant term of the resident footprint.
	if persistBytes >= memBytes {
		t.Errorf("spilled store resident %d B ≥ in-memory %d B for %d points", persistBytes, memBytes, pts)
	}
	walBytes, segBytes, err := eng.DiskUsage()
	if err != nil {
		t.Fatal(err)
	}
	if walBytes == 0 || segBytes == 0 {
		t.Errorf("disk usage wal=%d seg=%d, want both > 0", walBytes, segBytes)
	}
}

func TestRefusesNewerFormat(t *testing.T) {
	dir := t.TempDir()
	eng := openTest(t, dir, SyncOff)
	eng.Close()
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(`{"format": 99, "shards": 4, "segments": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 4}); !errors.Is(err, ErrFormatTooNew) {
		t.Fatalf("Open with newer format: got %v, want ErrFormatTooNew", err)
	}
}

func TestManifestShardCountWins(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	eng, err := Open(Options{Dir: dir, Shards: 8, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, eng, table, testMeters, 10)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen asking for a different shard count: the directory's wins, and
	// the data comes back intact.
	re, err := Open(Options{Dir: dir, Shards: 3, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Store().NumShards(); got != 8 {
		t.Errorf("NumShards after reopen: got %d, want the directory's 8", got)
	}
	if got, want := re.Store().TotalSymbols(), len(testMeters)*10*96; got != want {
		t.Errorf("TotalSymbols: got %d, want %d", got, want)
	}
}

// TestSegmentFooterRunningTotal: the footer size the seal path's headroom
// check reads is kept as blocks join, not recomputed; it must equal the sum
// over the open segment's blocks after every seal — blocks with and without
// histograms — across segments that fill and roll over, a Flush's finish
// and the segment opened after it.
func TestSegmentFooterRunningTotal(t *testing.T) {
	eng := openTest(t, t.TempDir(), SyncOff)
	defer eng.Close()
	fine, err := symbolic.Learn(symbolic.MethodMedian, func() []float64 {
		vals := make([]float64, 8192)
		for i := range vals {
			vals[i] = float64(i)
		}
		return vals
	}(), 512) // level 9: blocks carry no histogram
	if err != nil {
		t.Fatal(err)
	}
	shard := eng.store.ShardFor(1)
	meters := map[uint64]*symbolic.Table{1: testTable(t)}
	for m := uint64(2); len(meters) < 2; m++ {
		if eng.store.ShardFor(m) == shard {
			meters[m] = fine
		}
	}
	for m, table := range meters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if err := (Sequenced{eng}).PushTable(m, table); err != nil {
			t.Fatal(err)
		}
	}
	sw := eng.segs[shard]
	check := func(when string) {
		t.Helper()
		sum := 0
		for i := range sw.meta {
			sum += segBlockMetaLen + 4*len(sw.meta[i].blk.Hist)
		}
		if sw.metaBytes != sum {
			t.Fatalf("%s: running footer size %d, recomputed %d over %d blocks", when, sw.metaBytes, sum, len(sw.meta))
		}
	}
	flushed := false
	for idx := 0; sw.seq < 4; idx++ {
		if idx == 400 {
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			check("after Flush")
			flushed = true
		}
		for m, table := range meters {
			if _, err := (Sequenced{eng}).Append(m, genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("segment %d, batch %d", sw.seq, idx))
		}
	}
	if !flushed {
		t.Fatal("the segments rolled over before the Flush: grow the run")
	}
}

// TestFormat3DirectoryMigrates: a format-3 directory — sequenced logs in
// two generations, the second from a heal, segments that cover part of
// them, and no floors — opens, migrates to format 4 with every floor at 0,
// and recovers the same store and high-water marks. Its first Close then
// checkpoints onto a single generation per shard that reopens identically.
func TestFormat3DirectoryMigrates(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	const nBatches = 40
	// noRotationFS keeps the logs whole, as a format-3 binary did.
	eng, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncOff, SegmentBytes: 64 << 10, FS: noRotationFS{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range testMeters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.PushTableSeq(m, 1, table); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 0; idx < nBatches; idx++ {
		if idx == 25 {
			if err := eng.Flush(); err == nil {
				t.Fatal("Flush rotated a log the fixture refused")
			}
		}
		for _, m := range testMeters {
			if _, _, err := eng.AppendSeq(m, uint64(2+idx), genBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Abandon()
	// Split every shard's log at a record boundary into generations 0 and
	// 1, the layout a format-3 heal left, and write the manifest format 3
	// wrote.
	split := 0
	for shard := 0; shard < 4; shard++ {
		path := filepath.Join(dir, "wal", fmt.Sprintf("shard-%04d.wal", shard))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _, err := parseWAL(raw)
		if err != nil {
			t.Fatalf("shard %d log: %v", shard, err)
		}
		if len(recs) < 2 {
			continue // a shard without meters
		}
		split++
		cut := recs[len(recs)/2].end
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", fmt.Sprintf("shard-%04d-000001.wal", shard)), raw[cut:], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if split == 0 {
		t.Fatal("no shard log to split")
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	man["format"], man["wal_gen"] = 3, 1
	delete(man, "wal_floor")
	if raw, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	want := oracleStore(t, table, testMeters, nBatches)
	check := func(eng *Engine) {
		t.Helper()
		compareStores(t, eng.Store(), want, testMeters)
		for _, m := range testMeters {
			if got := eng.LastSeq(m); got != 1+nBatches {
				t.Fatalf("meter %d LastSeq %d, want %d", m, got, 1+nBatches)
			}
		}
	}
	re := openTest(t, dir, SyncOff)
	check(re)
	if rs := re.Recovery(); rs.SkippedPoints == 0 || rs.Segments == 0 {
		t.Fatalf("the fixture's segments cover nothing: %+v", rs)
	}
	migrated, ok, _, err := loadManifest(OsFS{}, dir)
	if err != nil || !ok || migrated.Format != 4 || !slices.Equal(migrated.WALFloor, []uint64{0, 0, 0, 0}) || migrated.WALGen != 1 {
		t.Fatalf("migrated manifest %+v, %v", migrated, err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again := openTest(t, dir, SyncOff)
	defer again.Close()
	check(again)
	logs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(logs) != 4 {
		t.Fatalf("after the first checkpoint: logs %v (%v), want one per shard", logs, err)
	}
}

// TestFormat3ReaderRefusesFormat4: a format-4 manifest, as this binary
// writes it, is refused by a reader that knows formats up to 3 — the
// versioning rule a format-3 binary applies — and read by this one.
func TestFormat3ReaderRefusesFormat4(t *testing.T) {
	dir := t.TempDir()
	eng := openTest(t, dir, SyncOff)
	applyBatches(t, eng, testTable(t), testMeters, 10)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := parseManifest(raw, 3); !errors.Is(err, ErrFormatTooNew) {
		t.Fatalf("format-3 reader: got %v, want ErrFormatTooNew", err)
	}
	if m, migrated, err := parseManifest(raw, manifestFormat); err != nil || migrated || m.Format != 4 {
		t.Fatalf("format-4 reader: %+v migrated=%v err=%v", m, migrated, err)
	}
}
