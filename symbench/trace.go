package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"symmeter/internal/query"
	"symmeter/internal/storage"
	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	// Generator spans, around its pkg/client calls.
	spanDial   spanKind = iota // client.DialSession: handshake + high-water mark
	spanAppend                 // client.Session.Append until acked
	spanQuery                  // one client.Client query round trip
	// Wrapper spans, around the service's calls into storage and query.
	spanAppendSeq
	spanPushTable
	spanStartSession
	spanEndSession
	spanServe
)

var spanNames = [...]string{"client.dial", "client.append", "client.query",
	"storage.append_seq", "storage.push_table", "storage.start_session",
	"storage.end_session", "query.serve"}

// span is one timed call. Spans of one request share its key: (meter, seq)
// for an ingest batch, which both sides know, and the request's (scope,
// meter, op, t0, t1) for a query. Times are nanoseconds since the tracer's
// epoch.
type span struct {
	kind       spanKind
	fleet      bool
	op         byte
	meter, seq uint64
	t0, t1     int64
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps the spans the wrappers record, in memory, until the run
// writes them out.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tracedIngest wraps the engine the service ingests through
// (server.SequencedIngest) and times the calls the session loop makes.
type tracedIngest struct {
	*storage.Engine
	tr *tracer
}

func (w *tracedIngest) AppendSeq(meter, seq uint64, pts []symbolic.SymbolPoint) (int, bool, error) {
	start := w.tr.now()
	n, dup, err := w.Engine.AppendSeq(meter, seq, pts)
	w.tr.record(span{kind: spanAppendSeq, meter: meter, seq: seq, start: start, end: w.tr.now()})
	return n, dup, err
}

func (w *tracedIngest) PushTableSeq(meter, seq uint64, t *symbolic.Table) (bool, error) {
	start := w.tr.now()
	dup, err := w.Engine.PushTableSeq(meter, seq, t)
	w.tr.record(span{kind: spanPushTable, meter: meter, seq: seq, start: start, end: w.tr.now()})
	return dup, err
}

func (w *tracedIngest) StartSession(meter uint64) error {
	start := w.tr.now()
	err := w.Engine.StartSession(meter)
	w.tr.record(span{kind: spanStartSession, meter: meter, start: start, end: w.tr.now()})
	return err
}

func (w *tracedIngest) EndSession(meter uint64) {
	start := w.tr.now()
	w.Engine.EndSession(meter)
	w.tr.record(span{kind: spanEndSession, meter: meter, start: start, end: w.tr.now()})
}

// tracedQuery wraps the query engine the service answers with
// (server.QueryHandler).
type tracedQuery struct {
	eng *query.Engine
	tr  *tracer
}

func (w *tracedQuery) ServeQuery(req transport.QueryRequest, res *transport.QueryResult) error {
	start := w.tr.now()
	err := w.eng.ServeQuery(req, res)
	w.tr.record(span{kind: spanServe, fleet: req.Fleet, op: req.Op, meter: req.MeterID,
		t0: req.T0, t1: req.T1, start: start, end: w.tr.now()})
	return err
}

// queryKey identifies a query request on both sides of the wire.
type queryKey struct {
	fleet  bool
	op     byte
	meter  uint64
	t0, t1 int64
}

// breakdown splits one client span into the joined layer span and the
// unattributed remainder (wire, framing, scheduling): layer + remainder ==
// client by construction, and a layer span that is not nested inside its
// client span is a violation.
type breakdown struct {
	client, layer, remainder int64
	fleet                    bool
}

// joined is the result of matching client spans to layer spans.
type joined struct {
	ingest, queries []breakdown
	// unjoined counts client spans without a layer span; violations counts
	// layer spans that start before or end after their client span.
	unjoined, violations int
}

// join matches every client append and query span to the layer span of the
// same request.
func join(client, layer []span) joined {
	seqs := make(map[[2]uint64]int)
	serves := make(map[queryKey][]int)
	for i, s := range layer {
		switch s.kind {
		case spanAppendSeq:
			seqs[[2]uint64{s.meter, s.seq}] = i
		case spanServe:
			k := queryKey{s.fleet, s.op, s.meter, s.t0, s.t1}
			serves[k] = append(serves[k], i)
		}
	}
	var j joined
	split := func(c, l span) breakdown {
		if l.start < c.start || l.end > c.end {
			j.violations++
		}
		return breakdown{client: c.dur(), layer: l.dur(), remainder: c.dur() - l.dur(), fleet: c.fleet}
	}
	for _, c := range client {
		switch c.kind {
		case spanAppend:
			i, ok := seqs[[2]uint64{c.meter, c.seq}]
			if !ok {
				j.unjoined++
				continue
			}
			j.ingest = append(j.ingest, split(c, layer[i]))
		case spanQuery:
			k := queryKey{c.fleet, c.op, c.meter, c.t0, c.t1}
			cands := serves[k]
			found := -1
			for n, i := range cands {
				if layer[i].start >= c.start && layer[i].end <= c.end {
					found = n
					break
				}
			}
			if found < 0 && len(cands) > 0 {
				found = 0
			}
			if found < 0 {
				j.unjoined++
				continue
			}
			j.queries = append(j.queries, split(c, layer[cands[found]]))
			serves[k] = append(cands[:found], cands[found+1:]...)
		}
	}
	return j
}

// writeSpans writes every span as CSV, one per line, client and layer
// spans together.
func writeSpans(path string, groups ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,meter,seq,fleet,op,t0,t1,start_ns,end_ns")
	for _, g := range groups {
		for _, s := range g {
			fmt.Fprintf(w, "%s,%d,%d,%t,%d,%d,%d,%d,%d\n", spanNames[s.kind], s.meter, s.seq, s.fleet, s.op, s.t0, s.t1, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
