package main

import (
	"fmt"
	"os"
	"time"

	"symmeter/internal/server"
	"symmeter/internal/storage"
)

// workloads are the benchmark's traffic mixes; BENCHMARK.json says why each
// was chosen.
var workloads = []string{"ingest", "query", "mixed"}

// phase is everything one set-up, timed phase and gate measured.
type phase struct {
	workload string
	fleet    *fleet
	setup    []float64 // seconds per set-up
	recover  []float64 // seconds per storage.Open of a directory holding data

	// ingest and query hold the figures the ingest_* and query_* metrics
	// are computed from: the timed phase where the workload does that
	// work; otherwise the set-up's preload (query) or the read-back queries
	// (ingest). ingestUse is the process usage over the ingest figures.
	ingest, query *rec
	ingestUse     delta

	pre      *rec  // the set-ups' preloads, pooled
	preUse   delta // process usage over the preloads
	readBack *rec  // ingest: queries on each round's recovered node
	timed    *rec  // the timed phase
	use      delta // process usage over the timed phase
	gate     *rec
	failures []string
	tried    int64

	exp           exported // registry scrape at the end of the timed phase
	stats         server.Stats
	locks         int64 // store query-lock acquisitions in the timed phase
	wal, seg      int64 // disk bytes at the end of the timed phase
	stored        int64 // symbols stored at the end of the timed phase
	resident      int64 // Store.MemoryFootprint after the restarts
	residentPts   int64
	recovery      storage.RecoveryStats // of the last restart
	layer         []span                // wrapper spans, when traced
	fleetSumDiffs int
}

// prepared is a node ready for the timed phase.
type prepared struct {
	n     *node
	f     *fleet
	held  []int
	pre   *rec // the preload, if any
	preUS delta
}

// setup generates the inputs and brings up the node in dir. The query and
// mixed workloads preload history through the wire and restart the node,
// so the timed phase starts on a recovered node reading cold segments.
func setup(w string, seed int64, sz sizes, dir string, tr *tracer) (*prepared, error) {
	f, err := newFleet(seed, sz)
	if err != nil {
		return nil, err
	}
	if w == "ingest" {
		n, err := startNode(dir, tr)
		return &prepared{n: n, f: f, held: make([]int, sz.meters), pre: &rec{}}, err
	}
	meters, days := sz.meters, sz.days
	if w == "mixed" {
		meters, days = sz.mixMeters, sz.mixHistory
	}
	p := &prepared{f: f, held: make([]int, meters)}
	n0, err := startNode(dir, nil)
	if err != nil {
		return nil, err
	}
	u := snapshot()
	p.pre = streamDays(n0.addr, f, p.held, days, time.Time{}, nil)
	p.preUS = u.to(snapshot())
	if err := n0.stop(); err != nil {
		return nil, err
	}
	if p.n, err = startNode(dir, tr); err != nil {
		return nil, err
	}
	if len(p.pre.failures) > 0 {
		return p, fmt.Errorf("preload: %s", p.pre.failures[0])
	}
	return p, nil
}

// runPhase sets up `setups` times, keeping the last node, and runs the
// timed phase for dur. The query and mixed workloads run it once. The
// ingest workload runs it in rounds, each streaming one whole fleet-year
// into a fresh node, until the rounds have streamed for dur; a traced run
// makes one round, as the span keys repeat from round to round. After each
// timed phase the node restarts sz.restarts times and the gate checks it.
func runPhase(w string, seed int64, sz sizes, dur time.Duration, setups int, root string, tr *tracer) (*phase, error) {
	p := &phase{workload: w, pre: &rec{}, timed: &rec{}, gate: &rec{}, readBack: &rec{}}
	var pr *prepared
	for i := 0; i < setups; i++ {
		if pr != nil {
			err := pr.n.stop()
			os.RemoveAll(pr.n.dir)
			if err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(root, "node-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		pr, err = setup(w, seed, sz, dir, tr)
		p.setup = append(p.setup, time.Since(start).Seconds())
		if err != nil {
			if pr != nil && pr.n != nil {
				pr.n.stop()
			}
			os.RemoveAll(dir)
			return nil, fmt.Errorf("%s set-up: %w", w, err)
		}
		p.pre.merge(pr.pre)
		p.preUse = p.preUse.plus(pr.preUS)
		if w != "ingest" {
			p.recover = append(p.recover, pr.n.open.Seconds())
		}
	}
	n, f, held := pr.n, pr.f, pr.held
	p.fleet = f
	switch w {
	case "query":
		f.index(held)
	case "mixed":
		ticks := int(dur / sz.tick)
		planned := make([]int, len(held))
		for m := range planned {
			planned[m] = sz.mixHistory + ticks/len(held) + 1
		}
		f.index(planned)
	}

	for {
		locks := n.eng.Store().QueryLockAcquisitions()
		u := snapshot()
		var r *rec
		switch w {
		case "ingest":
			r = streamDays(n.addr, f, held, sz.days, time.Time{}, tr)
		case "query":
			r = runQueries(n.addr, f, held, sz.fleetDays, time.Now().Add(dur), seed, tr)
		case "mixed":
			r = runMixed(n.addr, f, held, sz, dur, seed, tr)
		}
		p.use = p.use.plus(u.to(snapshot()))
		p.timed.merge(r)
		p.locks += n.eng.Store().QueryLockAcquisitions() - locks
		p.exp = scrape(n.reg)
		p.stats = n.svc.Stats()
		if tr != nil {
			tr.mu.Lock()
			p.layer = tr.spans
			tr.mu.Unlock()
		}
		if err := p.check(n, f, held, sz, seed); err != nil {
			return nil, err
		}
		if w != "ingest" || tr != nil || p.use.wall >= dur || len(r.failures) > 0 {
			break
		}
		dir, err := os.MkdirTemp(root, "node-")
		if err != nil {
			return nil, err
		}
		if n, err = startNode(dir, nil); err != nil {
			return nil, err
		}
		clear(held)
	}

	p.ingest, p.ingestUse = p.timed, p.use
	p.query = p.timed
	switch w {
	case "ingest":
		p.query = p.readBack
	case "query":
		p.ingest, p.ingestUse = p.pre, p.preUse
	}
	for _, r := range []*rec{p.pre, p.timed, p.readBack, p.gate} {
		p.failures = append(p.failures, r.failures...)
		p.tried += r.attempted
	}
	return p, nil
}

// check restarts the node sz.restarts times, timing each recovery, reads
// its disk and memory use, runs the gate on it, and removes it. On the
// ingest workload it first runs the query workload's closed loop on the
// recovered node for sz.readBack, which is where that workload's query
// metrics come from.
func (p *phase) check(n *node, f *fleet, held []int, sz sizes, seed int64) error {
	defer os.RemoveAll(n.dir)
	var err error
	for i := 0; i < sz.restarts; i++ {
		if n, err = n.restart(); err != nil {
			return fmt.Errorf("%s restart: %w", p.workload, err)
		}
		p.recover = append(p.recover, n.open.Seconds())
		if i == 0 {
			// Closing finished the open segments, which also trims their
			// preallocated tails.
			if p.wal, p.seg, err = n.eng.DiskUsage(); err != nil {
				n.stop()
				return err
			}
			p.stored = int64(n.eng.Store().TotalSymbols())
		}
	}
	p.recovery = n.eng.Recovery()
	p.resident, p.residentPts = n.eng.Store().MemoryFootprint()
	if p.workload == "ingest" {
		f.index(held)
		p.readBack.merge(runQueries(n.addr, f, held, sz.fleetDays, time.Now().Add(sz.readBack), seed, nil))
	}
	g, diffs := gate(n, f, held, sz, seed)
	p.gate.merge(g)
	p.fleetSumDiffs += diffs
	return n.stop()
}

func (d delta) plus(o delta) delta {
	return delta{wall: d.wall + o.wall, cpu: d.cpu + o.cpu, gc: d.gc + o.gc, alloc: d.alloc + o.alloc}
}
