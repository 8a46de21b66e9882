package benchref

import (
	"testing"
	"time"

	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
)

// Persistence benchmark bodies, shared by cmd/bench (BENCH_5.json) and
// bench_test.go exactly like the in-memory ones: ingest latency with the
// WAL in front of the store, recovery throughput from segments vs pure WAL
// replay, and cold queries over mmap-backed spilled blocks.

// MakePersistStore builds the query fixture of MakeQueryStore through a
// durable engine rooted at dir, so every sealed block is spilled and every
// batch logged, each meter's writes sequenced as its session would send
// them. The caller owns Close.
func MakePersistStore(dir string, meters, points int, mode storage.SyncMode) (*storage.Engine, error) {
	table, err := StoreTable()
	if err != nil {
		return nil, err
	}
	eng, err := storage.Open(storage.Options{Dir: dir, Shards: 16, Sync: mode})
	if err != nil {
		return nil, err
	}
	level := table.Level()
	k := table.K()
	for m := 1; m <= meters; m++ {
		id := uint64(m)
		if err := eng.StartSession(id); err != nil {
			return nil, err
		}
		if _, err := eng.PushTableSeq(id, 1, table); err != nil {
			return nil, err
		}
		if err := eng.Reserve(id, points); err != nil {
			return nil, err
		}
		seq := uint64(1)
		var ts int64
		pts := make([]symbolic.SymbolPoint, 96)
		for sent := 0; sent < points; {
			batch := 96
			if batch > points-sent {
				batch = points - sent
			}
			bp := pts[:batch]
			for i := range bp {
				bp[i] = symbolic.SymbolPoint{T: ts, S: symbolic.NewSymbol((m*7+int(ts/900)*11)%k, level)}
				ts += 900
			}
			seq++
			if _, _, err := eng.AppendSeq(id, seq, bp); err != nil {
				return nil, err
			}
			sent += batch
		}
		eng.EndSession(id)
	}
	return eng, nil
}

// BenchPersistAppend measures committing one decoded batch through the full
// durable path — admission, WAL framing + write(2), packed-store commit and
// the sequence advance — the durable twin of BenchStoreAppend. The engine is recycled off-timer per slab so the
// WAL on disk stays bounded for any b.N.
func BenchPersistAppend(b *testing.B, mode storage.SyncMode) {
	table, err := StoreTable()
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]symbolic.SymbolPoint, 96)
	const slab = 1 << 13
	newEngine := func() *storage.Engine {
		eng, err := storage.Open(storage.Options{Dir: b.TempDir(), Shards: 16, Sync: mode})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.StartSession(1); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.PushTableSeq(1, 1, table); err != nil {
			b.Fatal(err)
		}
		if err := eng.Reserve(1, slab*len(pts)); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	eng := newEngine()
	var next int64
	seq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%slab == 0 {
			b.StopTimer()
			eng.Close()
			eng = newEngine()
			next = 0
			seq = 1
			b.StartTimer()
		}
		for j := range pts {
			pts[j].T = (next + int64(j)) * 900
			pts[j].S = table.Encode(float64((int(next) + j) * 11 % 4000))
		}
		next += int64(len(pts))
		seq++
		if _, _, err := eng.AppendSeq(1, seq, pts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	eng.Close()
	reportSymbols(b, len(pts))
}

// BenchPersistIngestLatency measures per-AppendSeq latency on one hot meter
// through the WAL (the durable counterpart of BenchIngestLatency) and
// reports p50/p99.
func BenchPersistIngestLatency(b *testing.B, mode storage.SyncMode) {
	table, err := StoreTable()
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]symbolic.SymbolPoint, 96)
	const slab = 1 << 13
	mk := func() *storage.Engine {
		eng, err := storage.Open(storage.Options{Dir: b.TempDir(), Shards: 16, Sync: mode})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.StartSession(1); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.PushTableSeq(1, 1, table); err != nil {
			b.Fatal(err)
		}
		if err := eng.Reserve(1, slab*len(pts)); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	eng := mk()
	var ts int64
	seq := uint64(1)
	lat := make([]int64, 0, min(maxLatencySamples, 1<<16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%slab == 0 {
			b.StopTimer()
			eng.Close()
			eng = mk()
			ts = 0
			seq = 1
			b.StartTimer()
		}
		for j := range pts {
			pts[j] = symbolic.SymbolPoint{T: ts, S: table.Encode(float64(j * 11 % 4000))}
			ts += 900
		}
		seq++
		start := time.Now()
		if _, _, err := eng.AppendSeq(1, seq, pts); err != nil {
			b.Fatal(err)
		}
		d := int64(time.Since(start))
		if len(lat) < maxLatencySamples {
			lat = append(lat, d)
		} else {
			lat[i%maxLatencySamples] = d
		}
	}
	b.StopTimer()
	eng.Close()
	b.ReportMetric(percentile(lat, 0.50), "p50-ns")
	b.ReportMetric(percentile(lat, 0.99), "p99-ns")
	reportSymbols(b, len(pts))
}

// PrepareRecoveryDir ingests the query fixture into dir and leaves it in
// one of the two recovery shapes: flushed (finished segments + manifest —
// the clean-shutdown path, sealed data restores from footers) or crashed
// (abandoned unflushed — everything replays from the WAL). Returns the
// stored point count.
func PrepareRecoveryDir(dir string, meters, points int, flush bool) (int, error) {
	eng, err := MakePersistStore(dir, meters, points, storage.SyncOff)
	if err != nil {
		return 0, err
	}
	total := eng.Store().TotalSymbols()
	if flush {
		if err := eng.Close(); err != nil {
			return 0, err
		}
	} else {
		eng.Abandon()
	}
	return total, nil
}

// BenchRecovery measures storage.Open — the full rebuild of a queryable
// store from disk — in points/sec. Every iteration prepares a fresh
// directory off-timer (recovery of a crash-shaped directory respills
// segments, so the directory cannot be reused) and times only Open.
func BenchRecovery(b *testing.B, meters, points int, flush bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		total, err := PrepareRecoveryDir(dir, meters, points, flush)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		eng, err := storage.Open(storage.Options{Dir: dir, Shards: 16, Sync: storage.SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := eng.Store().TotalSymbols(); got != total {
			b.Fatalf("recovered %d points, want %d", got, total)
		}
		eng.Abandon()
		b.StartTimer()
	}
	reportSymbols(b, meters*points)
}
