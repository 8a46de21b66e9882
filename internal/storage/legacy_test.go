package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// Test-side writers for what the program itself no longer writes: the
// per-meter sequence numbering a session applies, and the unsequenced 'T'
// and 'B' records that format ≤ 2 directories hold and replay still reads.

// Sequenced drives a server.Ingest as each meter's one session does: every
// write carries the seq after the meter's high-water mark, so a refused
// write leaves the mark where it was and its retry reuses the seq. Exported
// for the external test package.
type Sequenced struct{ server.Ingest }

// PushTable pushes t under the meter's next seq.
func (s Sequenced) PushTable(meterID uint64, t *symbolic.Table) error {
	_, err := s.PushTableSeq(meterID, s.LastSeq(meterID)+1, t)
	return err
}

// Append commits pts under the meter's next seq.
func (s Sequenced) Append(meterID uint64, pts []symbolic.SymbolPoint) (int, error) {
	n, _, err := s.AppendSeq(meterID, s.LastSeq(meterID)+1, pts)
	return n, err
}

// legacyTable frames an unsequenced table record.
func legacyTable(meterID uint64, t *symbolic.Table) []byte {
	return frameRecord(appendTableBody([]byte{recTable}, meterID, t))
}

// legacyBatch frames an unsequenced batch record.
func legacyBatch(meterID uint64, epoch uint32, level int, pts []symbolic.SymbolPoint) []byte {
	return frameRecord(appendBatchBody([]byte{recBatch}, meterID, epoch, level, pts))
}

// AppendLegacy logs pts as an unsequenced batch under the meter's current
// table and commits them, as engines did before ingest was sequenced: it
// leaves a live log holding a legacy record beside sequenced ones.
func AppendLegacy(t testing.TB, e *Engine, meterID uint64, pts []symbolic.SymbolPoint) {
	t.Helper()
	m, ok := e.store.Meter(meterID)
	if !ok {
		t.Fatalf("meter %d is unknown", meterID)
	}
	tables, _ := m.IngestState()
	epoch := len(tables) - 1
	logLegacy(t, e, meterID, legacyBatch(meterID, uint32(epoch), tables[epoch].Level(), pts))
	if _, err := e.store.Append(meterID, pts); err != nil {
		t.Fatal(err)
	}
}

// PushLegacy is AppendLegacy for a table push.
func PushLegacy(t testing.TB, e *Engine, meterID uint64, table *symbolic.Table) {
	t.Helper()
	logLegacy(t, e, meterID, legacyTable(meterID, table))
	if err := e.store.PushTable(meterID, table); err != nil {
		t.Fatal(err)
	}
}

// logLegacy writes one framed record to the meter's shard log.
func logLegacy(t testing.TB, e *Engine, meterID uint64, rec []byte) {
	t.Helper()
	w := e.wals[e.store.ShardFor(meterID)].Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.writeLocked(rec); err != nil {
		t.Fatal(err)
	}
}

// TestFormat2LegacyRecordsRecover: a format-2 directory whose logs hold
// only unsequenced 'T'/'B' records — an epoch change and stride breaks
// included — recovers bit-exactly with every meter's high-water mark at 0,
// then takes sequenced writes from seq 1 that survive a restart.
func TestFormat2LegacyRecordsRecover(t *testing.T) {
	dir := t.TempDir()
	table := testTable(t)
	const shards, nBatches = 4, 12
	want := server.NewStore(shards)
	logs := make([][]byte, shards)
	epoch := map[uint64]uint32{}
	for _, m := range testMeters {
		if err := want.StartSession(m); err != nil {
			t.Fatal(err)
		}
		want.EndSession(m)
	}
	for idx := 0; idx < nBatches; idx++ {
		for _, m := range testMeters {
			shard := want.ShardFor(m)
			if idx == 0 || (idx == nBatches/2 && m == testMeters[0]) {
				if idx > 0 {
					epoch[m]++
				}
				logs[shard] = append(logs[shard], legacyTable(m, table)...)
				if err := want.PushTable(m, table); err != nil {
					t.Fatal(err)
				}
			}
			pts := genBatch(m, idx, table)
			logs[shard] = append(logs[shard], legacyBatch(m, epoch[m], table.Level(), pts)...)
			if _, err := want.Append(m, pts); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sub := range []string{"wal", "seg"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for shard, raw := range logs {
		if err := os.WriteFile(filepath.Join(dir, "wal", fmt.Sprintf("shard-%04d.wal", shard)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(`{"format": 2, "shards": 4, "wal_gen": 0, "segments": []}`), 0o644); err != nil {
		t.Fatal(err)
	}

	eng := openTest(t, dir, SyncOff)
	compareStores(t, eng.Store(), want, testMeters)
	for _, m := range testMeters {
		g, _ := eng.Store().Snapshot(m)
		w, _ := want.Snapshot(m)
		if !sameSnapshot(g, w) {
			t.Fatalf("meter %d: recovered stream differs from the logged one", m)
		}
		if got, st := eng.LastSeq(m), eng.Store().LastSeq(m); got != 0 || st != 0 {
			t.Fatalf("meter %d: LastSeq %d (store %d) from legacy records, want 0", m, got, st)
		}
	}

	// The meters' sessions now sequence their writes from seq 1.
	for _, m := range testMeters {
		if err := eng.StartSession(m); err != nil {
			t.Fatal(err)
		}
		pts := genBatch(m, nBatches, table)
		if n, dup, err := eng.AppendSeq(m, 1, pts); n != len(pts) || dup || err != nil {
			t.Fatalf("meter %d first sequenced batch: n=%d dup=%v err=%v", m, n, dup, err)
		}
		if _, err := want.Append(m, pts); err != nil {
			t.Fatal(err)
		}
	}
	if dup, err := eng.PushTableSeq(testMeters[1], 2, table); dup || err != nil {
		t.Fatalf("sequenced table push: dup=%v err=%v", dup, err)
	}
	if err := want.PushTable(testMeters[1], table); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTest(t, dir, SyncOff)
	defer re.Close()
	compareStores(t, re.Store(), want, testMeters)
	for _, m := range testMeters {
		wantSeq := uint64(1)
		if m == testMeters[1] {
			wantSeq = 2
		}
		if got, st := re.LastSeq(m), re.Store().LastSeq(m); got != wantSeq || st != wantSeq {
			t.Fatalf("meter %d after restart: LastSeq %d (store %d), want %d", m, got, st, wantSeq)
		}
	}
}
