// Sequenced-ingest durability tests: the engine's sequenced server.Ingest
// implementation must make the per-meter high-water mark exactly as durable
// as the batches it covers — recovery restores it from the replayed WAL, a
// duplicate seq never commits twice (even across a crash), and a gap is a
// loud refusal rather than a silent reorder. External test package for the
// same reason as chaos_test.go.
package storage_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symmeter/internal/server"
	"symmeter/internal/storage"
)

// TestSequencedAppendRecoversHighWaterMark: sequenced commits survive a
// crash byte-identically AND the high-water mark comes back with them, while
// a legacy (unsequenced) meter in the same directory recovers with mark 0.
func TestSequencedAppendRecoversHighWaterMark(t *testing.T) {
	dir := t.TempDir()
	table := chaosTable(t)
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)

	if err := eng.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if dup, err := eng.PushTableSeq(1, 1, table); dup || err != nil {
		t.Fatalf("PushTableSeq: dup=%v err=%v", dup, err)
	}
	for idx := 0; idx < 3; idx++ {
		n, dup, err := eng.AppendSeq(1, uint64(2+idx), chaosBatch(1, idx, table))
		if err != nil || dup || n != 96 {
			t.Fatalf("AppendSeq idx %d: n=%d dup=%v err=%v", idx, n, dup, err)
		}
	}
	if got := eng.LastSeq(1); got != 4 {
		t.Fatalf("live LastSeq: %d, want 4", got)
	}
	startMeters(t, eng, table, []uint64{2}) // legacy meter, no seqs
	if _, err := eng.Append(2, chaosBatch(2, 0, table)); err != nil {
		t.Fatal(err)
	}
	eng.Abandon() // crash shape

	re := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer re.Close()
	if got := re.LastSeq(1); got != 4 {
		t.Fatalf("recovered LastSeq(1): %d, want 4", got)
	}
	if got := re.LastSeq(2); got != 0 {
		t.Fatalf("recovered LastSeq(2): %d, want 0 for a legacy meter", got)
	}
	requireStoresEqual(t, re.Store(),
		buildOracle(t, table, []uint64{1, 2}, map[uint64][]int{1: {0, 1, 2}, 2: {0}}),
		[]uint64{1, 2})
}

// TestSequencedDuplicateSuppressed: a retransmitted seq is acked as a
// duplicate without committing — live, and again after a crash when the
// client's retry races recovery's restored mark.
func TestSequencedDuplicateSuppressed(t *testing.T) {
	dir := t.TempDir()
	table := chaosTable(t)
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)

	if err := eng.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushTableSeq(1, 1, table); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.AppendSeq(1, 2, chaosBatch(1, 0, table)); err != nil {
		t.Fatal(err)
	}
	// Retransmit both the table push and the batch.
	if dup, err := eng.PushTableSeq(1, 1, table); !dup || err != nil {
		t.Fatalf("dup PushTableSeq: dup=%v err=%v", dup, err)
	}
	n, dup, err := eng.AppendSeq(1, 2, chaosBatch(1, 0, table))
	if !dup || n != 0 || err != nil {
		t.Fatalf("dup AppendSeq: n=%d dup=%v err=%v", n, dup, err)
	}
	if got := eng.LastSeq(1); got != 2 {
		t.Fatalf("LastSeq after dups: %d, want 2", got)
	}
	eng.Abandon()

	re := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer re.Close()
	if err := re.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if n, dup, err := re.AppendSeq(1, 2, chaosBatch(1, 0, table)); !dup || n != 0 || err != nil {
		t.Fatalf("post-recovery dup AppendSeq: n=%d dup=%v err=%v", n, dup, err)
	}
	// Exactly one copy of the batch, despite three sends across two lives.
	requireStoresEqual(t, re.Store(),
		buildOracle(t, table, []uint64{1}, map[uint64][]int{1: {0}}), []uint64{1})
}

// TestSequencedGapRefused: a seq that skips ahead is refused with ErrSeqGap,
// commits nothing, and leaves the session able to continue at the correct
// next seq.
func TestSequencedGapRefused(t *testing.T) {
	dir := t.TempDir()
	table := chaosTable(t)
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer eng.Close()

	if err := eng.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushTableSeq(1, 1, table); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.AppendSeq(1, 5, chaosBatch(1, 0, table)); !errors.Is(err, server.ErrSeqGap) {
		t.Fatalf("gap AppendSeq: got %v, want ErrSeqGap", err)
	}
	if _, err := eng.PushTableSeq(1, 9, table); !errors.Is(err, server.ErrSeqGap) {
		t.Fatalf("gap PushTableSeq: got %v, want ErrSeqGap", err)
	}
	if got := eng.LastSeq(1); got != 1 {
		t.Fatalf("LastSeq after gaps: %d, want 1", got)
	}
	if n, dup, err := eng.AppendSeq(1, 2, chaosBatch(1, 0, table)); err != nil || dup || n != 96 {
		t.Fatalf("AppendSeq after gap refusals: n=%d dup=%v err=%v", n, dup, err)
	}
	requireStoresEqual(t, eng.Store(),
		buildOracle(t, table, []uint64{1}, map[uint64][]int{1: {0}}), []uint64{1})
}

// TestFormat2ManifestMigrates: a format-2 directory (WAL generations, no
// sequencing) opens cleanly, keeps its wal_gen, and is rewritten forward to
// the current format on the spot.
func TestFormat2ManifestMigrates(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"),
		[]byte(`{"format": 2, "shards": 4, "wal_gen": 2, "segments": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	table := chaosTable(t)
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	if gen := eng.Health().WALGen; gen != 2 {
		t.Fatalf("WALGen after migration: %d, want the format-2 manifest's 2", gen)
	}
	if err := eng.StartSession(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushTableSeq(1, 1, table); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.AppendSeq(1, 2, chaosBatch(1, 0, table)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"format": 4`) {
		t.Fatalf("manifest not migrated to format 4:\n%s", raw)
	}
	if !strings.Contains(string(raw), `"wal_gen": 2`) {
		t.Fatalf("migration lost wal_gen:\n%s", raw)
	}
	re := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer re.Close()
	if got := re.LastSeq(1); got != 2 {
		t.Fatalf("recovered LastSeq at generation 2: %d, want 2", got)
	}
	requireStoresEqual(t, re.Store(),
		buildOracle(t, table, []uint64{1}, map[uint64][]int{1: {0}}), []uint64{1})
}
