// Sequenced-ingest durability tests: the engine's sequenced server.Ingest
// implementation must make the per-meter high-water mark exactly as durable
// as the batches it covers — recovery restores it from the replayed WAL, a
// duplicate seq never commits twice (even across a crash), and a gap is a
// loud refusal rather than a silent reorder. External test package for the
// same reason as chaos_test.go.
package storage_test

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"symmeter/internal/server"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
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
	// A legacy meter: unsequenced records, as engines logged them before
	// ingest was sequenced.
	if err := eng.StartSession(2); err != nil {
		t.Fatal(err)
	}
	storage.PushLegacy(t, eng, 2, table)
	storage.AppendLegacy(t, eng, 2, chaosBatch(2, 0, table))
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

// TestSequencedLastSeqIsTheStores: the store owns each meter's high-water
// mark, so the engine's LastSeq and the store's agree — after live
// sequenced writes, after a clean restart and after a crash.
func TestSequencedLastSeqIsTheStores(t *testing.T) {
	dir := t.TempDir()
	table := chaosTable(t)
	check := func(eng *storage.Engine, when string, want uint64) {
		t.Helper()
		for _, m := range chaosMeters {
			if got, st := eng.LastSeq(m), eng.Store().LastSeq(m); got != want || st != want {
				t.Fatalf("%s: meter %d: engine LastSeq %d, store LastSeq %d, want %d", when, m, got, st, want)
			}
		}
	}
	acked := map[uint64][]int{}
	write := func(eng *storage.Engine, from, to int) {
		t.Helper()
		for idx := from; idx < to; idx++ {
			for _, m := range chaosMeters {
				if _, _, err := eng.AppendSeq(m, uint64(2+idx), chaosBatch(m, idx, table)); err != nil {
					t.Fatal(err)
				}
				acked[m] = append(acked[m], idx)
			}
		}
	}
	eng := chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	startMeters(t, eng, table, chaosMeters)
	write(eng, 0, 10)
	check(eng, "live", 11)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng = chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	check(eng, "after Close and Open", 11)
	write(eng, 10, 15)
	eng.Abandon()

	eng = chaosOpen(t, dir, nil, storage.SyncOff, time.Hour)
	defer eng.Close()
	check(eng, "after Abandon and Open", 16)
	requireStoresEqual(t, eng.Store(), buildOracle(t, table, chaosMeters, acked), chaosMeters)
}

// TestSequencedEmptyBatchRefusedLikeInMemory sends an empty 'D' frame over
// the wire to an in-memory service and to a durable one. The store's one
// sequence rule answers both: the session ends with ErrEmptyBatch, nothing
// is acked after the table, and the high-water mark stays at the table's
// seq.
func TestSequencedEmptyBatchRefusedLikeInMemory(t *testing.T) {
	table := chaosTable(t)
	eng := chaosOpen(t, t.TempDir(), nil, storage.SyncOff, time.Hour)
	defer eng.Close()
	durable := server.New(server.Config{Store: eng.Store()})
	durable.SetIngest(eng)
	services := map[string]*server.Service{"in-memory": server.New(server.Config{Shards: 4}), "durable": durable}

	var outcomes [][]uint64
	for _, name := range []string{"in-memory", "durable"} {
		svc := services[name]
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		acks := emptyBatchSession(t, addr, table)
		svc.Close()
		errs := svc.SessionErrors()
		if len(errs) != 1 || !errors.Is(errs[0], server.ErrEmptyBatch) {
			t.Fatalf("%s: session errors %v, want one ErrEmptyBatch", name, errs)
		}
		if got := svc.Store().LastSeq(7); got != 1 {
			t.Fatalf("%s: high-water mark %d after the empty batch, want 1", name, got)
		}
		outcomes = append(outcomes, acks)
	}
	if got := eng.LastSeq(7); got != 1 {
		t.Fatalf("durable engine LastSeq %d, want 1", got)
	}
	if !slices.Equal(outcomes[0], outcomes[1]) || !slices.Equal(outcomes[0], []uint64{0, 1}) {
		t.Fatalf("acks in-memory %v, durable %v; want [0 1] from both", outcomes[0], outcomes[1])
	}
}

// emptyBatchSession runs one raw ingest session for meter 7 — handshake,
// the table under seq 1, then a 'D' frame of no symbols under seq 2 — and
// returns the acks the server sent before it closed the connection.
func emptyBatchSession(t *testing.T, addr net.Addr, table *symbolic.Table) []uint64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := transport.WriteHandshake(conn, 7); err != nil {
		t.Fatal(err)
	}
	empty, err := transport.AppendSeqSymbolFrame(nil, 2, 0, 900, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr := transport.NewFrameReader(conn)
	var acks []uint64
	readAck := func() bool {
		typ, payload, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return false
		}
		if err != nil || typ != transport.FrameAck {
			t.Fatalf("reply %q: %v", typ, err)
		}
		seq, err := transport.DecodeAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, seq)
		return true
	}
	readAck() // the handshake reply: the meter's high-water mark
	if _, err := conn.Write(transport.AppendSeqTableFrame(nil, 1, table)); err != nil {
		t.Fatal(err)
	}
	readAck()
	if _, err := conn.Write(empty); err != nil {
		t.Fatal(err)
	}
	for readAck() {
	}
	return acks
}
