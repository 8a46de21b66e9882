// Package symmeter's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (one benchmark per artifact, named after it)
// plus micro-benchmarks of the core operations whose cost the paper argues
// about (encoding throughput, packing, table learning).
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// Figure/table benchmarks report the measured headline metric (F-measure ×
// 1000, MAE in watts, compression ratio) as custom units so the artifact's
// value is visible next to its cost.
package symmeter

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"symmeter/internal/benchref"
	"symmeter/internal/dataset"
	"symmeter/internal/experiments"
	"symmeter/internal/loadgen"
	"symmeter/internal/query"
	"symmeter/internal/sax"
	"symmeter/internal/server"
	"symmeter/internal/stats"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
	"symmeter/internal/transport"
)

// benchCfg keeps figure benchmarks affordable: 6 houses, 12 days.
func benchPipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	p := experiments.NewPipeline(experiments.Config{Seed: 1, Houses: 6, Days: 12})
	if err := p.Build(experiments.Window1h, experiments.Window15m); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkFig1SymbolConstruction regenerates the recursive range-division
// table of Fig. 1.
func BenchmarkFig1SymbolConstruction(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Fig1SymbolConstruction(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Histogram regenerates the power-level distribution of Fig. 2.
func BenchmarkFig2Histogram(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := p.Fig2Histogram(0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if h.Total() == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkFig3Normalization regenerates the Fig. 3 grouping comparison.
func BenchmarkFig3Normalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		saxRes, symRes, err := experiments.Fig3Compare()
		if err != nil {
			b.Fatal(err)
		}
		if saxRes.NearestTo["A"] != "C" || symRes.NearestTo["A"] != "B" {
			b.Fatal("grouping shape broke")
		}
	}
}

// BenchmarkFig4AccumulativeStats regenerates the convergence curves of
// Fig. 4 over one day.
func BenchmarkFig4AccumulativeStats(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Fig4AccumulativeStats(0, 1, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// classificationCell runs one Fig. 5/6/7 (or Table 1) cell and reports the
// F-measure as a custom metric.
func classificationCell(b *testing.B, enc experiments.Encoding, model experiments.ModelName) {
	p := benchPipeline(b)
	b.ResetTimer()
	var f1 float64
	for i := 0; i < b.N; i++ {
		res, err := p.Classify(enc, model)
		if err != nil {
			b.Fatal(err)
		}
		f1 = res.F1
	}
	b.ReportMetric(f1*1000, "mF1")
}

// BenchmarkFig5NaiveBayes runs the headline Fig. 5 cell (median 1h 16s, NB).
func BenchmarkFig5NaiveBayes(b *testing.B) {
	classificationCell(b,
		experiments.Encoding{Method: symbolic.MethodMedian, Window: experiments.Window1h, K: 16},
		experiments.ModelNaiveBayes)
}

// BenchmarkFig6RandomForest runs the headline Fig. 6 cell (median 1h 16s, RF).
func BenchmarkFig6RandomForest(b *testing.B) {
	classificationCell(b,
		experiments.Encoding{Method: symbolic.MethodMedian, Window: experiments.Window1h, K: 16},
		experiments.ModelRandomForest)
}

// BenchmarkFig7GlobalTable runs the Fig. 7 variant (single lookup table).
func BenchmarkFig7GlobalTable(b *testing.B) {
	classificationCell(b,
		experiments.Encoding{Method: symbolic.MethodMedian, Window: experiments.Window1h, K: 16, GlobalTable: true},
		experiments.ModelRandomForest)
}

// BenchmarkTable1Cell sweeps one representative Table 1 row per method,
// reporting F1; the full grid is cmd/experiments -run table1.
func BenchmarkTable1Cell(b *testing.B) {
	for _, m := range symbolic.Methods {
		b.Run(m.String(), func(b *testing.B) {
			classificationCell(b,
				experiments.Encoding{Method: m, Window: experiments.Window15m, K: 16},
				experiments.ModelJ48)
		})
	}
	b.Run("raw", func(b *testing.B) {
		classificationCell(b,
			experiments.Encoding{Method: symbolic.MethodNone, Window: experiments.Window15m},
			experiments.ModelJ48)
	})
}

// forecastCell runs one Fig. 8/9 series and reports the mean MAE over the
// houses that ran.
func forecastCell(b *testing.B, method symbolic.Method, model experiments.ModelName) {
	p := benchPipeline(b)
	b.ResetTimer()
	var mae float64
	for i := 0; i < b.N; i++ {
		results, err := p.ForecastAll(experiments.ForecastConfig{Method: method, Model: model})
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		n := 0
		for _, r := range results {
			if !r.Skipped {
				sum += r.MAE
				n++
			}
		}
		if n == 0 {
			b.Fatal("every house skipped")
		}
		mae = sum / float64(n)
	}
	b.ReportMetric(mae, "W-MAE")
}

// BenchmarkFig8ForecastNB runs the Fig. 8 symbolic series (median, NB).
func BenchmarkFig8ForecastNB(b *testing.B) {
	forecastCell(b, symbolic.MethodMedian, experiments.ModelNaiveBayes)
}

// BenchmarkFig8ForecastRawSVR runs the Fig. 8 baseline series (raw SVR).
func BenchmarkFig8ForecastRawSVR(b *testing.B) {
	forecastCell(b, symbolic.MethodNone, experiments.ModelNaiveBayes)
}

// BenchmarkFig9ForecastRF runs the Fig. 9 symbolic series (median, RF).
func BenchmarkFig9ForecastRF(b *testing.B) {
	forecastCell(b, symbolic.MethodMedian, experiments.ModelRandomForest)
}

// BenchmarkCompressionRatio regenerates the §2.3 table and reports the
// headline ratio (15m window, 16 symbols).
func BenchmarkCompressionRatio(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CompressionTable()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Window == experiments.Window15m && r.K == 16 {
				ratio = r.Stats.Ratio
			}
		}
	}
	b.ReportMetric(ratio, "ratio")
}

// --- Core-operation micro-benchmarks -------------------------------------

// benchSeries returns one day of 1 Hz data and a learned table.
func benchSeries(b *testing.B, k int) (*timeseries.Series, *symbolic.Table) {
	b.Helper()
	gen := dataset.New(dataset.Config{Seed: 2, Houses: 1, Days: 2, DisableGaps: true})
	day := gen.HouseDay(0, 1)
	var builder symbolic.TableBuilder
	builder.PushSeries(gen.HouseDay(0, 0))
	table, err := builder.Build(symbolic.MethodMedian, k)
	if err != nil {
		b.Fatal(err)
	}
	return day, table
}

// BenchmarkEncodeDay measures streaming a full 1 Hz day through the online
// encoder at 15-minute aggregation.
func BenchmarkEncodeDay(b *testing.B) {
	day, table := benchSeries(b, 16)
	b.SetBytes(int64(symbolic.RawSize(day.Len())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := symbolic.EncodeSeries(day, table, 900); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeValue measures a single horizontal-segmentation lookup.
func BenchmarkEncodeValue(b *testing.B) {
	_, table := benchSeries(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Encode(float64(i % 4000))
	}
}

// BenchmarkLearnTable measures learning separators from two days of 1 Hz
// history for each method.
func BenchmarkLearnTable(b *testing.B) {
	gen := dataset.New(dataset.Config{Seed: 2, Houses: 1, Days: 2, DisableGaps: true})
	var vals []float64
	for d := 0; d < 2; d++ {
		vals = append(vals, gen.HouseDay(0, d).Values()...)
	}
	for _, m := range symbolic.Methods {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := symbolic.Learn(m, vals, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLearnTableStreaming compares the O(k)-memory P²-based builder
// against the exact batch learner on the same two days of history.
func BenchmarkLearnTableStreaming(b *testing.B) {
	gen := dataset.New(dataset.Config{Seed: 2, Houses: 1, Days: 2, DisableGaps: true})
	var vals []float64
	for d := 0; d < 2; d++ {
		vals = append(vals, gen.HouseDay(0, d).Values()...)
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := symbolic.Learn(symbolic.MethodMedian, vals, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("p2-streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sb, err := symbolic.NewStreamingTableBuilder(16)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range vals {
				sb.Push(v)
			}
			if _, err := sb.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lloydmax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := symbolic.Learn(symbolic.MethodLloydMax, vals, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransportDay measures streaming one full 1 Hz day through the
// sensor→server protocol in memory: the day is symbolized, framed as one
// 'U' table frame and 'D' batches of 96 symbols, and decoded back.
func BenchmarkTransportDay(b *testing.B) {
	day, table := benchSeries(b, 16)
	b.SetBytes(int64(symbolic.RawSize(day.Len())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := symbolic.NewEncoder(table, 900)
		var syms []symbolic.Symbol
		var firstT int64
		for _, p := range day.Points {
			sp, ok, err := enc.Push(p)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				if len(syms) == 0 {
					firstT = sp.T
				}
				syms = append(syms, sp.S)
			}
		}
		if sp, ok := enc.Flush(); ok {
			syms = append(syms, sp.S)
		}
		// The generated day is gap-free, so its windows are consecutive.
		wire := transport.AppendSeqTableFrame(nil, 1, table)
		for j := 0; j < len(syms); j += 96 {
			var err error
			wire, err = transport.AppendSeqSymbolFrame(wire, uint64(2+j/96), firstT+int64(j)*900, 900, syms[j:min(j+96, len(syms))])
			if err != nil {
				b.Fatal(err)
			}
		}
		dec := transport.NewDecoder(bytes.NewReader(wire))
		got := 0
		for {
			ev, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got += len(ev.Points)
		}
		if got != len(syms) {
			b.Fatalf("decoded %d symbols, want %d", got, len(syms))
		}
	}
}

// BenchmarkFleetIngest measures concurrent ingest through the aggregation
// service: M meters learn their tables, connect over real TCP on loopback
// and stream the first hour of a day at 1 Hz, all in parallel, each over
// its own stop-and-wait exactly-once session. The reported sym/s is
// end-to-end fleet throughput (generation + encoding + wire + sharded
// store + acks).
func BenchmarkFleetIngest(b *testing.B) {
	for _, meters := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("meters=%d", meters), func(b *testing.B) {
			var symbols int64
			for i := 0; i < b.N; i++ {
				cfg := loadgen.FleetConfig{
					Meters:        meters,
					Days:          1,
					SecondsPerDay: 3600,
					Window:        60,
					Seed:          1,
					DisableGaps:   true,
				}
				svc := server.New(server.Config{Shards: 16, ReservePoints: cfg.ExpectedPointsPerMeter()})
				addr, err := svc.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				rep, err := loadgen.Run(addr.String(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				svc.AwaitSessions(int64(meters), 30*time.Second)
				svc.Drain()
				if errs := svc.SessionErrors(); len(errs) > 0 {
					b.Fatal(errs[0])
				}
				for _, m := range rep.Meters {
					if m.Err != nil {
						b.Fatal(m.Err)
					}
				}
				got := int64(svc.Store().TotalSymbols())
				if want := int64(meters * 3600 / 60); got != want {
					b.Fatalf("ingested %d symbols, want %d", got, want)
				}
				symbols += got
				svc.Close()
			}
			b.ReportMetric(float64(symbols)/b.Elapsed().Seconds(), "sym/s")
		})
	}
}

// benchSymbols returns n uniformly-spread symbols at the level of alphabet
// size k (one day of 15-minute data is n=96).
func benchSymbols(b *testing.B, n, k int) []symbolic.Symbol {
	b.Helper()
	a, err := symbolic.NewAlphabet(k)
	if err != nil {
		b.Fatal(err)
	}
	syms := make([]symbolic.Symbol, n)
	for i := range syms {
		syms[i] = symbolic.NewSymbol(i%k, a.Level())
	}
	return syms
}

// BenchmarkPack compares the word-at-a-time packing kernel (allocating Pack
// and buffer-reusing AppendPack) against the bit-at-a-time baseline it
// replaced (internal/benchref), on one day of symbols per op. The
// perf-trajectory claim for this codec is word ≥ 4x bitwise at level ≥ 4.
// Bodies live in internal/benchref so cmd/bench measures identical code.
func BenchmarkPack(b *testing.B) {
	for _, k := range []int{16, 256} {
		syms := benchSymbols(b, 96, k)
		name := fmt.Sprintf("k=%d", k)
		b.Run(name+"/word", func(b *testing.B) { benchref.BenchPackWord(b, syms) })
		b.Run(name+"/word-append", func(b *testing.B) { benchref.BenchPackAppend(b, syms) })
		b.Run(name+"/bitwise", func(b *testing.B) { benchref.BenchPackBitwise(b, syms) })
	}
}

// BenchmarkUnpack is the decode side of BenchmarkPack: word-at-a-time
// (allocating Unpack and buffer-reusing UnpackInto) versus the bit-at-a-time
// baseline.
func BenchmarkUnpack(b *testing.B) {
	for _, k := range []int{16, 256} {
		syms := benchSymbols(b, 96, k)
		data, err := symbolic.Pack(syms)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("k=%d", k)
		b.Run(name+"/word", func(b *testing.B) { benchref.BenchUnpackWord(b, data, len(syms)) })
		b.Run(name+"/word-into", func(b *testing.B) { benchref.BenchUnpackInto(b, data, len(syms)) })
		b.Run(name+"/bitwise", func(b *testing.B) { benchref.BenchUnpackBitwise(b, data, len(syms)) })
	}
}

// BenchmarkKernels measures the raw packed-symbol kernel family on every
// available dispatch path (scalar always; AVX2/NEON when the binary and CPU
// support them), at full SIMD stride over the shared 64K-symbol fixture.
// Bodies live in internal/benchref so cmd/bench (BENCH_8.json's kernel/*
// rows and their forced-scalar twins) measures identical code.
func BenchmarkKernels(b *testing.B) {
	bodies := benchref.KernelBenchmarks()
	prev := symbolic.KernelPath()
	defer func() {
		if err := symbolic.SetKernelPath(prev); err != nil {
			b.Fatal(err)
		}
	}()
	for _, path := range symbolic.KernelPaths() {
		if err := symbolic.SetKernelPath(path); err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"hist", "sum", "unpack", "pack"} {
			b.Run(path+"/"+name, bodies[name])
		}
	}
}

// BenchmarkQueryEngine measures the compressed-domain query engine against
// its decode-then-aggregate baseline over a fixture of 32 meters × 4 weeks
// of 15-minute symbols. The query side reads block summaries and runs LUT
// kernels on edge blocks through the bounded worker pool; the baseline reconstructs
// every stream and loops the floats. Bodies live in internal/benchref so
// cmd/bench (BENCH_4.json) measures identical code.
func BenchmarkQueryEngine(b *testing.B) {
	const meters, perMeter = benchref.QueryFixtureMeters, benchref.QueryFixturePoints
	st, err := benchref.MakeQueryStore(meters, perMeter)
	if err != nil {
		b.Fatal(err)
	}
	if err := benchref.SanityCheckQueryFixture(st, meters, perMeter); err != nil {
		b.Fatal(err)
	}
	total := meters * perMeter
	eng := query.New(st)
	wt0, wt1, wpts := benchref.QueryWindow()
	b.Run("fleet-sum", func(b *testing.B) { benchref.BenchQueryFleetSum(b, eng, total) })
	b.Run("fleet-hist", func(b *testing.B) { benchref.BenchQueryFleetHistogram(b, eng, total) })
	b.Run("meter-window", func(b *testing.B) {
		benchref.BenchQueryMeterWindow(b, eng, 1, wt0, wt1, wpts)
	})
	b.Run("baseline-fleet-sum", func(b *testing.B) { benchref.BenchBaselineFleetSum(b, st, total) })
	b.Run("baseline-fleet-hist", func(b *testing.B) { benchref.BenchBaselineFleetHistogram(b, st, 16, total) })
}

// BenchmarkMixedIngestQuery is the mixed-workload suite of the lock-free
// read path: fleet aggregates at increasing worker-pool bounds run against
// a store whose live tails are being mutated by background ingest the whole
// time. Queries read the RCU-published sealed indexes without shard locks,
// so on a multi-core box their throughput scales with the worker count
// instead of serializing against the writers; on a single-core box (like
// the container the committed BENCH_4.json was generated on — see its
// "cpus" field) extra workers only add scheduling overhead, so the sweep is
// meaningful where CI runs it, not there. Bodies live in internal/benchref
// so cmd/bench (BENCH_4.json) measures identical code.
func BenchmarkMixedIngestQuery(b *testing.B) {
	st, err := benchref.MakeQueryStore(benchref.QueryFixtureMeters, benchref.QueryFixturePoints)
	if err != nil {
		b.Fatal(err)
	}
	stop := benchref.StartBackgroundIngest(b, st, 4)
	defer stop()
	eng := query.New(st)
	total := benchref.QueryFixtureMeters * benchref.QueryFixturePoints
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("fleet-agg/workers=%d", workers), func(b *testing.B) {
			benchref.BenchMixedFleetAggregate(b, eng, workers, total)
		})
	}
}

// BenchmarkIngestUnderReaders measures Append latency (p50/p99 reported as
// metrics) on a hot meter, solo and with 4 concurrent readers running fleet
// aggregates plus full Snapshot reconstructions. The lock-free read path's
// contract is that slow readers never make an Append wait on a lock held
// across a scan — measured as an unchanged p50. The p99 additionally
// absorbs whatever scheduler preemption the reader goroutines cause, which
// on an undersubscribed (e.g. single-core) box can dominate it; compare
// p99s only across runs on the same hardware with cores to spare.
func BenchmarkIngestUnderReaders(b *testing.B) {
	b.Run("solo", func(b *testing.B) { benchref.BenchIngestLatency(b, 0) })
	b.Run("readers=4", func(b *testing.B) { benchref.BenchIngestLatency(b, 4) })
}

// BenchmarkNetQuery measures the remote query path: the fixture engine
// served over loopback TCP, queried through pkg/client on one reused
// connection — plus hot-meter Append latency with the slow readers moved
// behind the socket. Bodies live in internal/benchref so cmd/bench
// (BENCH_6.json) measures identical code.
func BenchmarkNetQuery(b *testing.B) {
	st, err := benchref.MakeQueryStore(benchref.QueryFixtureMeters, benchref.QueryFixturePoints)
	if err != nil {
		b.Fatal(err)
	}
	addr, stop, err := benchref.StartNetQuery(st)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	total := benchref.QueryFixtureMeters * benchref.QueryFixturePoints
	wt0, wt1, wpts := benchref.QueryWindow()
	eng := query.New(st)
	b.Run("fleet-sum", func(b *testing.B) { benchref.BenchNetFleetSum(b, addr, total) })
	b.Run("meter-window", func(b *testing.B) { benchref.BenchNetMeterWindow(b, addr, 1, wt0, wt1, wpts) })
	b.Run("window-latency-wire", func(b *testing.B) { benchref.BenchNetWindowLatency(b, addr, 1, wt0, wt1, wpts) })
	b.Run("window-latency-inproc", func(b *testing.B) { benchref.BenchInprocWindowLatency(b, eng, 1, wt0, wt1, wpts) })
	b.Run("ingest-under-net-readers", func(b *testing.B) { benchref.BenchIngestLatencyNet(b, 4) })
}

// BenchmarkStoreAppend measures committing one decoded day-batch into the
// sharded packed block store — the per-batch cost behind fleet ingest.
// Capacity is reserved up front, so the measured path is pure validate +
// bit-pack + summary update with zero allocations.
func BenchmarkStoreAppend(b *testing.B) {
	_, table := benchSeries(b, 16)
	pts := make([]symbolic.SymbolPoint, 96)
	for i := range pts {
		pts[i] = symbolic.SymbolPoint{T: int64(i) * 900, S: table.Encode(float64(i * 11 % 4000))}
	}
	benchref.BenchStoreAppend(b, table, pts)
}

// BenchmarkPersistAppend is BenchmarkStoreAppend through the full durable
// path: WAL framing + write(2) + packed-store commit + seal-time segment
// spill (fsync off — the write(2)-before-ack durability floor).
func BenchmarkPersistAppend(b *testing.B) {
	benchref.BenchPersistAppend(b, storage.SyncOff)
}

// BenchmarkPersistIngestLatency reports per-Append p50/p99 through the WAL
// at each fsync mode.
func BenchmarkPersistIngestLatency(b *testing.B) {
	for _, mode := range []storage.SyncMode{storage.SyncOff, storage.SyncGroup, storage.SyncAlways} {
		b.Run("fsync="+mode.String(), func(b *testing.B) {
			benchref.BenchPersistIngestLatency(b, mode)
		})
	}
}

// BenchmarkRecovery measures storage.Open rebuilding the query fixture from
// each directory shape: finished segments (clean shutdown) vs pure WAL
// replay (crash).
func BenchmarkRecovery(b *testing.B) {
	b.Run("segments", func(b *testing.B) {
		benchref.BenchRecovery(b, benchref.QueryFixtureMeters, benchref.QueryFixturePoints, true)
	})
	b.Run("replay", func(b *testing.B) {
		benchref.BenchRecovery(b, benchref.QueryFixtureMeters, benchref.QueryFixturePoints, false)
	})
}

// BenchmarkColdQuery runs the compressed-domain queries over a store whose
// sealed payloads live in mmapped segment files — the cold-read path.
func BenchmarkColdQuery(b *testing.B) {
	eng, err := benchref.MakePersistStore(b.TempDir(), benchref.QueryFixtureMeters, benchref.QueryFixturePoints, storage.SyncOff)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
	total := benchref.QueryFixtureMeters * benchref.QueryFixturePoints
	qe := query.New(eng.Store())
	b.Run("fleet-sum", func(b *testing.B) { benchref.BenchQueryFleetSum(b, qe, total) })
	wt0, wt1, wpts := benchref.QueryWindow()
	b.Run("meter-window", func(b *testing.B) { benchref.BenchQueryMeterWindow(b, qe, 1, wt0, wt1, wpts) })
}

// BenchmarkSAXEncode measures the SAX baseline on one day of hourly data.
func BenchmarkSAXEncode(b *testing.B) {
	gen := dataset.New(dataset.Config{Seed: 2, Houses: 1, Days: 1, DisableGaps: true})
	vals := gen.HouseDay(0, 0).Resample(3600).Values()
	enc, err := sax.NewEncoder(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateDay measures synthesising one house-day at 1 Hz.
func BenchmarkGenerateDay(b *testing.B) {
	gen := dataset.New(dataset.Config{Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.HouseDay(i%6, i%20)
	}
}

// BenchmarkRunningMedian measures the online median structure the periodic
// table-refresh path uses.
func BenchmarkRunningMedian(b *testing.B) {
	var rm stats.RunningMedian
	for i := 0; i < b.N; i++ {
		rm.Add(float64(i % 8192))
	}
	if rm.Count() != b.N {
		b.Fatal("count mismatch")
	}
}

// BenchmarkAblationPackedVsFixed compares the variable-length bit packing
// against naive one-byte-per-symbol storage (the DESIGN.md §5 codec
// ablation) by reporting bytes per day for each.
func BenchmarkAblationPackedVsFixed(b *testing.B) {
	day, table := benchSeries(b, 16)
	ss, err := symbolic.EncodeSeries(day, table, 900)
	if err != nil {
		b.Fatal(err)
	}
	syms := ss.Symbols()
	var packed int
	for i := 0; i < b.N; i++ {
		data, err := symbolic.Pack(syms)
		if err != nil {
			b.Fatal(err)
		}
		packed = len(data)
	}
	b.ReportMetric(float64(packed), "packedB")
	b.ReportMetric(float64(len(syms)), "byteB") // 1 byte per symbol baseline
}

// BenchmarkAblationResolutionConversion measures coarsening a k=16 day to
// k=4 versus re-encoding from raw — the §4 flexibility claim's cost side.
func BenchmarkAblationResolutionConversion(b *testing.B) {
	day, table := benchSeries(b, 16)
	ss, err := symbolic.EncodeSeries(day, table, 900)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("coarsen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ss.Coarsen(4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("re-encode", func(b *testing.B) {
		coarse, err := table.Coarsen(4)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := symbolic.EncodeSeries(day, coarse, 900); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLearningWindow compares tables learned from one versus
// two days of history (DESIGN.md §5: the Fig. 4 convergence claim's
// practical consequence), reporting the downstream classification F1.
func BenchmarkAblationLearningWindow(b *testing.B) {
	for _, trainDays := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("days=%d", trainDays), func(b *testing.B) {
			p := experiments.NewPipeline(experiments.Config{
				Seed: 1, Houses: 6, Days: 12, TrainDays: trainDays,
			})
			var f1 float64
			for i := 0; i < b.N; i++ {
				res, err := p.Classify(experiments.Encoding{
					Method: symbolic.MethodMedian, Window: experiments.Window1h, K: 16,
				}, experiments.ModelNaiveBayes)
				if err != nil {
					b.Fatal(err)
				}
				f1 = res.F1
			}
			b.ReportMetric(f1*1000, "mF1")
		})
	}
}

// BenchmarkClusteringExtension runs the segmentation-as-clustering
// extension and reports symbolic purity.
func BenchmarkClusteringExtension(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var purity float64
	for i := 0; i < b.N; i++ {
		rows, err := p.RunClustering(experiments.ClusterConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		purity = rows[1].Purity
	}
	b.ReportMetric(purity*1000, "mPurity")
}

// BenchmarkPrivacyExtension runs the event-detection attack study and
// reports the coarsest encoding's attack F1 (the privacy headline).
func BenchmarkPrivacyExtension(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var f1 float64
	for i := 0; i < b.N; i++ {
		rows, err := p.RunPrivacy(experiments.PrivacyConfig{})
		if err != nil {
			b.Fatal(err)
		}
		f1 = rows[len(rows)-1].F1
	}
	b.ReportMetric(f1*1000, "mAttackF1")
}

// BenchmarkDriftExtension runs the static-vs-adaptive drift study and
// reports the adaptive MAE.
func BenchmarkDriftExtension(b *testing.B) {
	var mae float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDrift(experiments.DriftConfig{Seed: 1, Days: 30})
		if err != nil {
			b.Fatal(err)
		}
		mae = res.AdaptiveMAE
	}
	b.ReportMetric(mae, "W-MAE")
}

// sanity check that benchmark helpers build valid fixtures even when not
// running benches (go vet-level guard).
func TestBenchFixtures(t *testing.T) {
	gen := dataset.New(dataset.Config{Seed: 2, Houses: 1, Days: 1, DisableGaps: true})
	if gen.HouseDay(0, 0).Len() != timeseries.SecondsPerDay {
		t.Fatal("fixture day incomplete")
	}
	if fmt.Sprintf("%d", timeseries.SecondsPerDay) != "86400" {
		t.Fatal("constant drift")
	}
}
