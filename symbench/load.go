package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"symmeter/internal/query"
	"symmeter/internal/transport"
	"symmeter/pkg/client"
)

// generators is the number of load-generating goroutines, and the most
// connections the generator holds open at any moment.
const generators = 2

// rec is what generator goroutines measured.
type rec struct {
	acks, dials    samples // Session.Append until acked; DialSession
	meterQ, fleetQ samples // query round trips
	late           samples // how late a paced goroutine woke for its tick
	symbols        int64   // symbols acked
	batches        int64   // symbol batches acked
	queries        int64   // queries answered
	attempted      int64   // operations started: dials, tables, batches, queries
	sessions       client.SessionStats
	spans          []span // client spans, when tracing
	failures       []string
}

func (r *rec) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *rec) merge(o *rec) {
	r.acks = append(r.acks, o.acks...)
	r.dials = append(r.dials, o.dials...)
	r.meterQ = append(r.meterQ, o.meterQ...)
	r.fleetQ = append(r.fleetQ, o.fleetQ...)
	r.late = append(r.late, o.late...)
	r.symbols += o.symbols
	r.batches += o.batches
	r.queries += o.queries
	r.attempted += o.attempted
	r.sessions.Reconnects += o.sessions.Reconnects
	r.sessions.Replays += o.sessions.Replays
	r.sessions.Retries += o.sessions.Retries
	r.spans = append(r.spans, o.spans...)
	r.failures = append(r.failures, o.failures...)
}

// parallel runs fn on each generator goroutine and merges what they
// recorded.
func parallel(fn func(g int, r *rec)) *rec {
	var recs [generators]rec
	var wg sync.WaitGroup
	for g := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(g, &recs[g])
		}()
	}
	wg.Wait()
	out := &rec{}
	for g := range recs {
		out.merge(&recs[g])
	}
	return out
}

// streamDays is the closed-loop exactly-once ingest: each generator
// goroutine takes its half of the fleet, one meter at a time, and streams
// `days` whole days per meter through one client.Session (preceded by the
// table for a new meter), each day one 96-symbol Append. held[m] counts the
// days meter m holds and advances as they are acked. Without a deadline it
// makes one pass; with one, passes repeat until the deadline, which is
// checked between sessions once the first pass is complete.
func streamDays(addr string, f *fleet, held []int, days int, deadline time.Time, tr *tracer) *rec {
	return parallel(func(g int, r *rec) {
		for pass := 0; ; pass++ {
			for m := g; m < len(held); m += generators {
				if pass > 0 && time.Now().After(deadline) {
					return
				}
				if !streamMeter(addr, f, held, m, days, r, tr) {
					return
				}
			}
			if deadline.IsZero() {
				return
			}
		}
	})
}

// dial opens meter m's exactly-once session, timing the handshake.
func dial(addr string, m int, r *rec, tr *tracer) (*client.Session, bool) {
	r.attempted++
	start := time.Now()
	s, err := client.DialSession(addr, meterID(m), client.SessionConfig{})
	end := time.Now()
	if err != nil {
		r.fail("meter %d: dial: %v", meterID(m), err)
		return nil, false
	}
	r.dials.add(end, end.Sub(start))
	if tr != nil {
		r.spans = append(r.spans, span{kind: spanDial, meter: meterID(m), start: tr.since(start), end: tr.since(end)})
	}
	return s, true
}

// closeSession ends a session and adds its retry counters to r. A Close
// error changes nothing: every batch was acknowledged before it.
func closeSession(s *client.Session, r *rec) {
	st := s.Stats()
	r.sessions.Reconnects += st.Reconnects
	r.sessions.Replays += st.Replays
	r.sessions.Retries += st.Retries
	_ = s.Close()
}

func streamMeter(addr string, f *fleet, held []int, m, days int, r *rec, tr *tracer) bool {
	s, ok := dial(addr, m, r, tr)
	if !ok {
		return false
	}
	defer closeSession(s, r)
	if held[m] == 0 {
		r.attempted++
		if err := s.PushTable(f.tables[f.house(m)]); err != nil {
			r.fail("meter %d: push table: %v", meterID(m), err)
			return false
		}
	}
	d0 := held[m]
	for d := d0; d < d0+days; d++ {
		syms := f.day(m, d).syms
		r.attempted++
		start := time.Now()
		err := s.Append(dayStart(d), window, syms)
		end := time.Now()
		if err != nil {
			r.fail("meter %d day %d: append: %v", meterID(m), d, err)
			return false
		}
		r.acks.add(end, end.Sub(start))
		if tr != nil {
			r.spans = append(r.spans, span{kind: spanAppend, meter: meterID(m), seq: s.Seq(), start: tr.since(start), end: tr.since(end)})
		}
		r.batches++
		r.symbols += int64(len(syms))
		held[m] = d + 1
	}
	return true
}

// timedQuery sends o, timing the round trip from `from` (the call itself,
// or the tick it was due at) and checking the answer against the reference
// for a meter holding clip days.
func timedQuery(c *client.Client, f *fleet, o op, clip int, from time.Time, a *answer, r *rec, tr *tracer) bool {
	r.attempted++
	start := time.Now()
	err := o.run(c, a)
	end := time.Now()
	if err != nil {
		r.fail("%v: %v", o, err)
		return false
	}
	r.queries++
	if o.fleet {
		r.fleetQ.add(end, end.Sub(from))
	} else {
		r.meterQ.add(end, end.Sub(from))
	}
	if tr != nil {
		s := span{kind: spanQuery, fleet: o.fleet, op: transport.OpAggregate, t0: o.t0, t1: o.t1,
			start: tr.since(start), end: tr.since(end)}
		if o.hist {
			s.op = transport.OpHistogram
		}
		if !o.fleet {
			s.meter = meterID(o.meter)
		}
		r.spans = append(r.spans, s)
	}
	if err := f.check(o, a, clip); err != nil {
		r.fail("%v", err)
	}
	return true
}

// runQueries is the closed-loop query load: each generator goroutine owns
// one client.Client and sends queryMix requests until the deadline.
func runQueries(addr string, f *fleet, held []int, fleetDays int, deadline time.Time, seed int64, tr *tracer) *rec {
	return parallel(func(g int, r *rec) {
		c, err := client.Dial(addr)
		if err != nil {
			r.fail("dial query: %v", err)
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(seed*generators + int64(g)))
		var a answer
		for time.Now().Before(deadline) {
			o := queryMix(rng, held, fleetDays, g)
			if !timedQuery(c, f, o, held[o.meter], time.Now(), &a, r, tr) {
				return
			}
		}
	})
}

// sleepUntil sleeps to the tick due at `due` and reports how late it woke.
func sleepUntil(due time.Time) time.Duration {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return time.Since(due)
}

// recentUploads is how many of the latest completed meter-day uploads the
// mixed workload's meter queries choose from.
const recentUploads = 16

// runMixed is the open-loop mixed load on a fixed tick. At tick k,
// goroutine A opens meter k mod M's session, uploads its next day as 24
// hourly 4-symbol batches and closes it; goroutine B sends a burst of
// meter queries on the last day of recently uploaded meters and one fleet
// query on the last day every meter has. Every request is timed from its
// tick, so a stall also charges the requests queued behind it.
func runMixed(addr string, f *fleet, held []int, sz sizes, dur time.Duration, seed int64, tr *tracer) *rec {
	ticks := int(dur / sz.tick)
	start := time.Now().Add(sz.tick)
	meters := len(held)
	var completed atomic.Int64
	var stop atomic.Bool
	return parallel(func(g int, r *rec) {
		if g == 0 {
			for k := 0; k < ticks && !stop.Load(); k++ {
				due := start.Add(time.Duration(k) * sz.tick)
				late := sleepUntil(due)
				r.late.add(due.Add(late), late)
				if !uploadDay(addr, f, held, k%meters, due, r, tr) {
					stop.Store(true)
					return
				}
				completed.Store(int64(k + 1))
			}
			return
		}
		c, err := client.Dial(addr)
		if err != nil {
			r.fail("dial query: %v", err)
			stop.Store(true)
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(seed*generators + int64(g)))
		var a answer
		for k := 0; k < ticks && !stop.Load(); k++ {
			due := start.Add(time.Duration(k) * sz.tick)
			late := sleepUntil(due)
			r.late.add(due.Add(late), late)
			done := int(completed.Load())
			for i := 0; i < sz.burst; i++ {
				m, d := rng.Intn(meters), sz.mixHistory-1
				if done > 0 {
					j := done - 1 - rng.Intn(min(done, recentUploads))
					m, d = j%meters, sz.mixHistory+j/meters
				}
				t0, t1 := meterWindow(rng, d, d+1, secondsPerDay)
				o := op{meter: m, hist: rng.Intn(4) == 0, t0: t0, t1: t1}
				if !timedQuery(c, f, o, d+1, due, &a, r, tr) {
					stop.Store(true)
					return
				}
			}
			full := sz.mixHistory + done/meters
			o := op{fleet: true, hist: k%2 == 1, t0: dayStart(full - 1), t1: dayStart(full)}
			if !timedQuery(c, f, o, 0, due, &a, r, tr) {
				stop.Store(true)
				return
			}
		}
	})
}

// uploadDay sends meter m's next day through a fresh session as 24 hourly
// batches, timing each ack from the tick.
func uploadDay(addr string, f *fleet, held []int, m int, due time.Time, r *rec, tr *tracer) bool {
	s, ok := dial(addr, m, r, tr)
	if !ok {
		return false
	}
	defer closeSession(s, r)
	d := held[m]
	syms := f.day(m, d).syms
	const perHour = slotsPerDay / 24
	for h := 0; h < 24; h++ {
		r.attempted++
		start := time.Now()
		err := s.Append(dayStart(d)+int64(h)*3600, window, syms[h*perHour:(h+1)*perHour])
		end := time.Now()
		if err != nil {
			r.fail("meter %d day %d hour %d: append: %v", meterID(m), d, h, err)
			return false
		}
		r.acks.add(end, end.Sub(due))
		if tr != nil {
			r.spans = append(r.spans, span{kind: spanAppend, meter: meterID(m), seq: s.Seq(), start: tr.since(start), end: tr.since(end)})
		}
		r.batches++
		r.symbols += perHour
	}
	held[m] = d + 1
	return true
}

// gate is the correctness gate, run on a node recovered from disk after the
// timed phase: the store holds exactly the acked symbols; every meter's
// full-range Count and Sum over the wire match the reference; and a seeded
// sample of queries answers the same over the wire as from an in-process
// query.Engine on the same store — bit for bit, except fleet sums, whose
// per-worker partials the engine merges in scheduling order.
func gate(n *node, f *fleet, held []int, sz sizes, seed int64) (r *rec, fleetSumDiffs int) {
	var want int64
	for _, d := range held {
		want += int64(d) * slotsPerDay
	}
	f.index(held)
	rng := rand.New(rand.NewSource(seed ^ 0x6a7e))
	ops := make([]op, sz.gateSample)
	for i := range ops {
		ops[i] = queryMix(rng, held, sz.fleetDays, 0)
	}
	sums := make([]client.Agg, len(held))
	answers := make([]answer, len(ops))
	r = parallel(func(g int, gr *rec) {
		c, err := client.Dial(n.addr)
		if err != nil {
			gr.fail("gate: dial: %v", err)
			return
		}
		defer c.Close()
		for m := g; m < len(held); m += generators {
			gr.attempted++
			sum, count, err := c.Sum(meterID(m), epoch, dayStart(held[m]))
			if err != nil {
				gr.fail("gate: meter %d sum: %v", meterID(m), err)
				return
			}
			sums[m] = client.Agg{Count: count, Sum: sum}
		}
		for i := g; i < len(ops); i += generators {
			if !timedQuery(c, f, ops[i], held[ops[i].meter], time.Now(), &answers[i], gr, nil) {
				return
			}
		}
	})
	r.attempted++
	if got := int64(n.eng.Store().TotalSymbols()); got != want {
		r.fail("gate: store holds %d symbols, %d were acked", got, want)
	}
	for m := range held {
		cs := make([]counts, f.houses)
		f.addMeter(&cs[f.house(m)], m, held[m], epoch, dayStart(held[m]))
		ref := refAgg(f.tables, cs)
		if sums[m].Count != ref.Count || !closeSum(sums[m].Sum, ref.Sum) {
			r.fail("gate: meter %d full range: count %d sum %v, want %d %v", meterID(m), sums[m].Count, sums[m].Sum, ref.Count, ref.Sum)
		}
	}
	for i, o := range ops {
		diff, err := inProcess(n.qe, o, &answers[i])
		if err != nil {
			r.fail("gate: %v", err)
		}
		if diff {
			fleetSumDiffs++
		}
	}
	return r, fleetSumDiffs
}

// inProcess compares a wire answer with the in-process engine's. It reports
// whether a fleet sum differed in its bits while agreeing within
// sumTolerance.
func inProcess(qe *query.Engine, o op, a *answer) (fleetSumDiff bool, err error) {
	id := meterID(o.meter)
	switch {
	case o.hist:
		var h query.Histogram
		if o.fleet {
			h, err = qe.FleetHistogram(o.t0, o.t1)
		} else {
			_, err = qe.HistogramInto(&h, id, o.t0, o.t1)
		}
		if err != nil {
			return false, fmt.Errorf("%v in process: %v", o, err)
		}
		if h.Level != a.hist.Level || !slices.Equal(h.Counts, a.hist.Counts) {
			return false, fmt.Errorf("%v: wire %v, in process %v", o, a.hist, h)
		}
		return false, nil
	case o.fleet:
		want := qe.FleetAggregate(o.t0, o.t1)
		got := a.agg
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || !closeSum(got.Sum, want.Sum) {
			return false, fmt.Errorf("%v: wire %+v, in process %+v", o, got, want)
		}
		return math.Float64bits(got.Sum) != math.Float64bits(want.Sum), nil
	default:
		want, _ := qe.Aggregate(id, o.t0, o.t1)
		got := a.agg
		if got.Count != want.Count || math.Float64bits(got.Sum) != math.Float64bits(want.Sum) ||
			math.Float64bits(got.Min) != math.Float64bits(want.Min) || math.Float64bits(got.Max) != math.Float64bits(want.Max) {
			return false, fmt.Errorf("%v: wire %+v, in process %+v", o, got, want)
		}
		return false, nil
	}
}
