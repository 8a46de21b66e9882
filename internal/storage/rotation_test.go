// Log rotation tests: a shard's WAL is checkpointed and its covered
// generations unlinked each time its segment finishes. These pin the
// exactly-once contract across a crash at every file operation of a
// rotation, and the bounded-disk promise the rotation exists for. External
// test package for the same reason as chaos_test.go.
package storage_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"symmeter/internal/faultfs"
	"symmeter/internal/metrics"
	"symmeter/internal/server"
	"symmeter/internal/storage"
)

// rotationFixture is a sequenced-ingest engine over faultfs whose shards
// hold, at the point the test takes over, a checkpoint generation, a heal
// generation above it and open segments: everything a rotation touches.
type rotationFixture struct {
	dir   string
	ffs   *faultfs.FS
	eng   *storage.Engine
	acked map[uint64][]int
	seq   map[uint64]uint64
}

// next commits batch idx of every meter under the meter's next seq.
func (fx *rotationFixture) next(t *testing.T, idx int) {
	t.Helper()
	table := chaosTable(t)
	for _, m := range chaosMeters {
		if _, dup, err := fx.eng.AppendSeq(m, fx.seq[m]+1, chaosBatch(m, idx, table)); dup || err != nil {
			t.Fatalf("meter %d batch %d: dup=%v err=%v", m, idx, dup, err)
		}
		fx.seq[m]++
		fx.acked[m] = append(fx.acked[m], idx)
	}
}

func newRotationFixture(t *testing.T) *rotationFixture {
	t.Helper()
	fx := &rotationFixture{dir: t.TempDir(), ffs: faultfs.New(), acked: map[uint64][]int{}, seq: map[uint64]uint64{}}
	fx.eng = chaosOpen(t, fx.dir, fx.ffs, storage.SyncOff, 2*time.Millisecond)
	table := chaosTable(t)
	for _, m := range chaosMeters {
		if err := fx.eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if dup, err := fx.eng.PushTableSeq(m, 1, table); dup || err != nil {
			t.Fatalf("PushTableSeq: dup=%v err=%v", dup, err)
		}
		fx.seq[m] = 1
	}
	idx := 0
	for ; idx < 12; idx++ {
		fx.next(t, idx)
	}
	// A first checkpoint: the logs move to a fresh generation.
	if err := fx.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	for ; idx < 18; idx++ {
		fx.next(t, idx)
	}
	// A heal adds a generation above it without moving the floors, so the
	// next checkpoint has two generations to unlink per shard.
	fx.ffs.SetFaults(faultfs.Fault{Op: faultfs.OpWrite, Path: ".wal", Sticky: true})
	if _, _, err := fx.eng.AppendSeq(chaosMeters[0], fx.seq[chaosMeters[0]]+1, chaosBatch(chaosMeters[0], idx, table)); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("append on a dead log: %v, want ErrDegraded", err)
	}
	fx.ffs.SetFaults()
	waitFor(t, 5*time.Second, "heal", func() bool { return fx.eng.Health().State == storage.StateHealthy })
	for ; idx < 30; idx++ {
		fx.next(t, idx)
	}
	return fx
}

// requireExactlyOnce checks a recovered engine against the fixture's acked
// batches: bit-exact store, every LastSeq, a suppressed resend of the last
// seq and a committed next one (which joins the acked set).
func (fx *rotationFixture) requireExactlyOnce(t *testing.T, eng *storage.Engine, idx int) {
	t.Helper()
	table := chaosTable(t)
	requireStoresEqual(t, eng.Store(), buildOracle(t, table, chaosMeters, fx.acked), chaosMeters)
	for _, m := range chaosMeters {
		if got := eng.LastSeq(m); got != fx.seq[m] {
			t.Fatalf("meter %d LastSeq %d, want %d", m, got, fx.seq[m])
		}
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		last := fx.acked[m][len(fx.acked[m])-1]
		if n, dup, err := eng.AppendSeq(m, fx.seq[m], chaosBatch(m, last, table)); !dup || n != 0 || err != nil {
			t.Fatalf("meter %d resent seq %d: n=%d dup=%v err=%v, want a suppressed duplicate", m, fx.seq[m], n, dup, err)
		}
	}
	fx.eng = eng
	fx.next(t, idx)
	requireStoresEqual(t, eng.Store(), buildOracle(t, table, chaosMeters, fx.acked), chaosMeters)
}

// TestRotationCrashMatrix crashes the process at every file operation of a
// Flush — segment finish, checkpoint write (torn when the crash lands on
// it), its fsync, the manifest barrier, the old logs' close and the unlinks
// of both covered generations — and requires exactly-once to survive each:
// the recovered store is the acked set, every high-water mark is restored,
// a resent seq is suppressed and the next commits, and all of that holds
// again across a clean Close and Open.
func TestRotationCrashMatrix(t *testing.T) {
	fx := newRotationFixture(t)
	before := fx.ffs.Ops()
	if err := fx.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	total := fx.ffs.Ops() - before
	fx.eng.Abandon()
	if total < 10 {
		t.Fatalf("a rotating Flush ran only %d file operations", total)
	}
	t.Logf("crashing at each of a rotating Flush's %d file operations", total)
	for n := 0; n < total; n++ {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			fx := newRotationFixture(t)
			fx.ffs.CrashAfter(n)
			_ = fx.eng.Flush()
			fx.eng.Abandon()
			fx.ffs.SetFaults()

			re := chaosOpen(t, fx.dir, fx.ffs, storage.SyncOff, time.Hour)
			fx.requireExactlyOnce(t, re, 30)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			again := chaosOpen(t, fx.dir, fx.ffs, storage.SyncOff, time.Hour)
			fx.requireExactlyOnce(t, again, 31)
			if err := again.Close(); err != nil {
				t.Fatal(err)
			}
			if ob, mb := fx.ffs.OpenBalance(), fx.ffs.MmapBalance(); ob != 0 || mb != 0 {
				t.Fatalf("leaked across the crash and restarts: open balance %d, mmap balance %d", ob, mb)
			}
		})
	}
}

// scrapeGauge reads one unlabelled gauge from the registry's exposition.
func scrapeGauge(t *testing.T, reg *metrics.Registry, name string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(f)
		}
	}
	t.Fatalf("no %s in the scrape", name)
	return 0
}

// TestWALBoundedBySegments streams more than three segments' worth per
// shard and checks the bounded-disk promise through the byte gauges: the
// WAL never holds more than one segment's worth of records plus a
// checkpoint per shard, after Close it holds the checkpoints alone, and
// both gauges then equal DiskUsage.
func TestWALBoundedBySegments(t *testing.T) {
	const (
		shards   = 2
		segBytes = 64 << 10
		// recBytes is one sequenced 96-point batch record at k=16: header,
		// type, seq, batch header, arithmetic timestamps, 48 packed bytes.
		recBytes = 12 + 1 + 8 + 18 + 16 + 48
		// A segment holds at most segBytes/256 full level-4 blocks.
		segPoints = segBytes / 256 * 512
	)
	dir := t.TempDir()
	reg := metrics.New()
	eng, err := storage.Open(storage.Options{Dir: dir, Shards: shards, Sync: storage.SyncOff, SegmentBytes: segBytes, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	table := chaosTable(t)
	perShard := map[int][]uint64{}
	var meters []uint64
	for m := uint64(1); len(meters) < 2*shards; m++ {
		if s := eng.Store().ShardFor(m); len(perShard[s]) < 2 {
			perShard[s] = append(perShard[s], m)
			meters = append(meters, m)
		}
	}
	for _, m := range meters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.PushTableSeq(m, 1, table); err != nil {
			t.Fatal(err)
		}
	}
	// Each shard's log holds its open segment's points, each meter's live
	// tail and the batches straddling them, plus the checkpoint the log
	// opened with: at most two tail blocks and the tables per meter.
	const ckptPerMeter = 2*(25+256) + 200
	bound := int64(shards * (recBytes*((segPoints+2*512)/96+2*2) + 2*ckptPerMeter))
	var logged, peak int64
	batches := 3*segPoints/96*shards/len(meters) + 200
	for idx := 0; idx < batches; idx++ {
		for _, m := range meters {
			if _, _, err := eng.AppendSeq(m, uint64(2+idx), chaosBatch(m, idx, table)); err != nil {
				t.Fatal(err)
			}
			logged += recBytes
		}
		if w := scrapeGauge(t, reg, "symmeter_storage_wal_bytes"); w > peak {
			peak = w
		}
	}
	t.Logf("WAL peak %d bytes against a bound of %d; %d bytes logged", peak, bound, logged)
	if peak > bound {
		t.Fatalf("WAL peaked at %d bytes, bound %d (one segment's worth of records plus a checkpoint per shard)", peak, bound)
	}
	if logged < 3*bound {
		t.Fatalf("logged only %d bytes against a bound of %d: the run does not outgrow it", logged, bound)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct{ Segments []struct{ Shard int } }
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	segs := map[int]int{}
	for _, s := range man.Segments {
		segs[s.Shard]++
	}
	for s := 0; s < shards; s++ {
		if segs[s] < 3 {
			t.Fatalf("shard %d finished %d segments, want ≥ 3", s, segs[s])
		}
	}
	walBytes, segDisk, err := eng.DiskUsage()
	if err != nil {
		t.Fatal(err)
	}
	if g := scrapeGauge(t, reg, "symmeter_storage_wal_bytes"); g != walBytes {
		t.Fatalf("WAL gauge %d after Close, DiskUsage %d", g, walBytes)
	}
	if g := scrapeGauge(t, reg, "symmeter_storage_segment_bytes"); g != segDisk {
		t.Fatalf("segment gauge %d after Close, DiskUsage %d", g, segDisk)
	}
	if walBytes > int64(len(meters)*ckptPerMeter) {
		t.Fatalf("closed WAL holds %d bytes, more than %d meters' checkpoints", walBytes, len(meters))
	}
	re := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer re.Close()
	if rs := re.Recovery(); rs.WALRecords != len(meters) || rs.ReplayedPoints >= int64(len(meters)*512) {
		t.Fatalf("restart read %d records and replayed %d points, want one checkpoint and at most a tail block per meter", rs.WALRecords, rs.ReplayedPoints)
	}
}

// TestRotationManifestFailureKeepsLogs: a checkpoint whose manifest barrier
// fails must leave the old generations in place — the manifest on disk
// still names them — and ingest carries on; a crash afterwards recovers the
// acked set from them.
func TestRotationManifestFailureKeepsLogs(t *testing.T) {
	// The rotation's manifest write is the last rename of a rotating Flush.
	fx := newRotationFixture(t)
	renames := fx.ffs.Counts()[faultfs.OpRename]
	if err := fx.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	renames = fx.ffs.Counts()[faultfs.OpRename] - renames
	fx.eng.Abandon()

	fx = newRotationFixture(t)
	fx.ffs.SetFaults(faultfs.Fault{Op: faultfs.OpRename, Path: "MANIFEST", N: renames})
	if err := fx.eng.Flush(); err == nil {
		t.Fatal("Flush succeeded through a failed rotation barrier")
	}
	fx.ffs.SetFaults()
	if h := fx.eng.Health(); h.State != storage.StateHealthy {
		t.Fatalf("a failed checkpoint degraded the engine: %+v", h)
	}
	fx.next(t, 30)
	fx.eng.Abandon()
	re := chaosOpen(t, fx.dir, fx.ffs, storage.SyncOff, time.Hour)
	defer re.Close()
	fx.requireExactlyOnce(t, re, 31)
}

// TestConcurrentWritesAcrossRotations: sessions of one shard keep writing
// while its segments fill and its log rotates under them. The shard gate
// must keep every checkpoint consistent with the logs it unlinks: after a
// crash, and again after a clean restart, the store is the acked set and
// every high-water mark holds.
func TestConcurrentWritesAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	open := func() *storage.Engine {
		eng, err := storage.Open(storage.Options{Dir: dir, Shards: 1, Sync: storage.SyncOff, SegmentBytes: 64 << 10, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	table := chaosTable(t)
	meters := []uint64{1, 2, 3, 4}
	const batches = 500
	errs := make(chan error, len(meters))
	for _, m := range meters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		go func() {
			if _, err := eng.PushTableSeq(m, 1, table); err != nil {
				errs <- err
				return
			}
			for idx := 0; idx < batches; idx++ {
				if _, _, err := eng.AppendSeq(m, uint64(2+idx), chaosBatch(m, idx, table)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range meters {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if gen := eng.Health().WALGen; gen < 2 {
		t.Fatalf("WAL generation %d: the run did not rotate under the writers", gen)
	}
	acked := map[uint64][]int{}
	for _, m := range meters {
		for idx := 0; idx < batches; idx++ {
			acked[m] = append(acked[m], idx)
		}
	}
	want := buildOracle(t, table, meters, acked)
	eng.Abandon()
	for _, restart := range []string{"crash", "clean"} {
		eng = open()
		requireStoresEqual(t, eng.Store(), want, meters)
		for _, m := range meters {
			if got := eng.LastSeq(m); got != 1+batches {
				t.Fatalf("%s restart: meter %d LastSeq %d, want %d", restart, m, got, 1+batches)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// walFloors reads each shard's oldest live log generation from dir's
// manifest.
func walFloors(t *testing.T, dir string) []uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		WALFloor []uint64 `json:"wal_floor"`
		Segments []struct{ File string }
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man.WALFloor
}

// manifestSegments counts the segments dir's manifest lists.
func manifestSegments(t *testing.T, dir string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct{ Segments []struct{ File string } }
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return len(man.Segments)
}

// TestMissingCheckpointGenerationFailsLoudly: a shard's floor generation
// holds its checkpoint, the only record of what its segments do not hold.
// When it is gone — a directory entry that did not survive a power loss —
// Open must refuse, and release what it opened, rather than bring the shard
// back empty with every high-water mark at 0.
func TestMissingCheckpointGenerationFailsLoudly(t *testing.T) {
	fx := newRotationFixture(t)
	if err := fx.eng.Close(); err != nil {
		t.Fatal(err)
	}
	shard, floors := 0, walFloors(t, fx.dir)
	for floors[shard] == 0 {
		shard++ // the first shard with meters, which has checkpointed
	}
	name := fmt.Sprintf("shard-%04d-%06d.wal", shard, floors[shard])
	if err := os.Remove(filepath.Join(fx.dir, "wal", name)); err != nil {
		t.Fatal(err)
	}
	// The error names the missing file, which is what an operator needs
	// (the segments' own checks would also refuse, less helpfully).
	_, err := storage.Open(storage.Options{Dir: fx.dir, Shards: 4, Sync: storage.SyncOff, SegmentBytes: 64 << 10, FS: fx.ffs, ProbeInterval: time.Hour})
	if !errors.Is(err, storage.ErrWALCorrupt) || !strings.Contains(err.Error(), name) {
		t.Fatalf("Open without shard %d's checkpoint generation: %v, want ErrWALCorrupt naming %s", shard, err, name)
	}
	if ob, mb := fx.ffs.OpenBalance(), fx.ffs.MmapBalance(); ob != 0 || mb != 0 {
		t.Fatalf("failed Open leaked: open balance %d, mmap balance %d", ob, mb)
	}
}

// TestRotationSyncsDirectoriesFirst: a manifest must not name a file whose
// directory entry may not survive a power loss — a finished segment before
// seg/ is fsynced, a checkpoint generation before wal/ is. With the
// directory fsync failing, a Flush lists no new segment (seg) or moves no
// floor (wal), the engine stays healthy, and a crash afterwards recovers
// the acked set exactly once.
func TestRotationSyncsDirectoriesFirst(t *testing.T) {
	for _, sub := range []string{"seg", "wal"} {
		t.Run(sub, func(t *testing.T) {
			fx := newRotationFixture(t)
			floors, segs := walFloors(t, fx.dir), manifestSegments(t, fx.dir)
			fx.ffs.SetFaults(faultfs.Fault{Op: faultfs.OpSyncDir, Path: string(filepath.Separator) + sub, Sticky: true})
			if err := fx.eng.Flush(); err == nil {
				t.Fatalf("Flush succeeded with %s/ unsyncable", sub)
			}
			fx.ffs.SetFaults()
			if got := walFloors(t, fx.dir); sub == "wal" && !slices.Equal(got, floors) {
				t.Fatalf("floors moved from %v to %v over an unsynced log directory", floors, got)
			}
			if got := manifestSegments(t, fx.dir); sub == "seg" && got != segs {
				t.Fatalf("manifest lists %d segments, had %d: a segment was listed over an unsynced directory", got, segs)
			}
			if h := fx.eng.Health(); h.State != storage.StateHealthy {
				t.Fatalf("a directory fsync failure degraded the engine: %+v", h)
			}
			fx.next(t, 30)
			fx.eng.Abandon()
			re := chaosOpen(t, fx.dir, fx.ffs, storage.SyncOff, time.Hour)
			defer re.Close()
			fx.requireExactlyOnce(t, re, 31)
		})
	}
}

// TestUnsyncedRotationManifestDegrades: a rotation whose manifest was
// renamed into place but whose directory fsync failed has swapped the
// logs onto a generation power loss could make the manifest forget. The
// engine must refuse ingest until a heal writes a durable manifest, keep
// the older generations, and still recover the acked set exactly once.
func TestUnsyncedRotationManifestDegrades(t *testing.T) {
	// The rotation's manifest fsync is the last directory fsync of a
	// rotating Flush.
	fx := newRotationFixture(t)
	syncs := fx.ffs.Counts()[faultfs.OpSyncDir]
	if err := fx.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	syncs = fx.ffs.Counts()[faultfs.OpSyncDir] - syncs
	fx.eng.Abandon()

	fx = newRotationFixture(t)
	floors := walFloors(t, fx.dir)
	// The probe cannot pass while the fault stands, so the engine stays
	// degraded until the test lifts it.
	fx.ffs.SetFaults(
		faultfs.Fault{Op: faultfs.OpSyncDir, N: syncs},
		faultfs.Fault{Op: faultfs.OpWrite, Path: ".probe", Sticky: true},
	)
	heals := fx.eng.Health().Heals
	if err := fx.eng.Flush(); err == nil {
		t.Fatal("Flush succeeded through an unsynced rotation manifest")
	}
	if h := fx.eng.Health(); h.State != storage.StateDegraded {
		t.Fatalf("an unsynced rotation manifest left the engine %v", h.State)
	}
	m := chaosMeters[0]
	if _, _, err := fx.eng.AppendSeq(m, fx.seq[m]+1, chaosBatch(m, 30, chaosTable(t))); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("append after an unsynced rotation manifest: %v, want ErrDegraded", err)
	}
	got := walFloors(t, fx.dir)
	for i := range got {
		if got[i] == floors[i] {
			continue
		}
		// The renamed manifest moved this floor; the generations below it
		// must still be on disk in case the previous manifest comes back.
		ents, err := os.ReadDir(filepath.Join(fx.dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		below := 0
		for _, ent := range ents {
			name := ent.Name()
			if strings.HasPrefix(name, fmt.Sprintf("shard-%04d", i)) && name < fmt.Sprintf("shard-%04d-%06d.wal", i, got[i]) {
				below++
			}
		}
		if below == 0 {
			t.Fatalf("shard %d: generations below the unsynced floor %d were unlinked", i, got[i])
		}
	}
	fx.ffs.SetFaults()
	waitFor(t, 5*time.Second, "heal", func() bool { return fx.eng.Health().State == storage.StateHealthy })
	if h := fx.eng.Health(); h.Heals != heals+1 {
		t.Fatalf("heals %d, want %d", h.Heals, heals+1)
	}
	fx.next(t, 30)
	fx.eng.Abandon()
	re := chaosOpen(t, fx.dir, fx.ffs, storage.SyncOff, time.Hour)
	defer re.Close()
	fx.requireExactlyOnce(t, re, 31)
}

// TestDegradedShardsStayDue: a segment that finishes while the engine is
// degraded makes its shard due a checkpoint the engine may not write yet.
// The shard must stay due, so its first write after the heal rotates it,
// rather than keep its covered generations until its next segment finishes.
func TestDegradedShardsStayDue(t *testing.T) {
	fx := newRotationFixture(t)
	floors := walFloors(t, fx.dir)
	fx.ffs.SetFaults(
		faultfs.Fault{Op: faultfs.OpWrite, Path: ".wal", Sticky: true},
		faultfs.Fault{Op: faultfs.OpWrite, Path: ".probe", Sticky: true},
	)
	m := chaosMeters[0]
	if _, _, err := fx.eng.AppendSeq(m, fx.seq[m]+1, chaosBatch(m, 30, chaosTable(t))); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("append on a dead log: %v, want ErrDegraded", err)
	}
	segs := manifestSegments(t, fx.dir)
	_ = fx.eng.Flush() // finishes the open segments; the checkpoints must wait
	if got := manifestSegments(t, fx.dir); got <= segs {
		t.Fatalf("Flush while degraded finished no segment (%d listed, had %d)", got, segs)
	}
	if got := walFloors(t, fx.dir); !slices.Equal(got, floors) {
		t.Fatalf("a degraded engine checkpointed: floors %v → %v", floors, got)
	}
	fx.ffs.SetFaults()
	waitFor(t, 5*time.Second, "heal", func() bool { return fx.eng.Health().State == storage.StateHealthy })
	fx.next(t, 30)
	// The shards with meters have checkpointed before (their floors are
	// above 0) and finished a segment while degraded.
	got := walFloors(t, fx.dir)
	for i := range got {
		if floors[i] > 0 && got[i] <= floors[i] {
			t.Fatalf("shard %d did not checkpoint after the heal: floors %v → %v", i, floors, got)
		}
	}
	fx.eng.Abandon()
	re := chaosOpen(t, fx.dir, fx.ffs, storage.SyncOff, time.Hour)
	defer re.Close()
	fx.requireExactlyOnce(t, re, 31)
}
