package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"symmeter/internal/symbolic"
	"symmeter/internal/transport"
)

// fuzzIngestTable is the k=16 table the FuzzIngestConn seeds announce.
func fuzzIngestTable() *symbolic.Table {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i * 7919 % 4000)
	}
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 16)
	if err != nil {
		panic(err)
	}
	return table
}

// Connection fuzz inputs may make the server allocate at most allocSlack —
// the service, the session and its buffers — plus allocPerByte for every
// input byte, the bytes that justify anything more. A level-1 symbol is one
// bit on the wire and 24 bytes once decoded (its point and its symbol), so a
// well-formed stream costs a few hundred bytes per input byte; a frame
// length claim allocated before its payload arrives costs megabytes for 5.
const (
	allocSlack   = 1 << 20
	allocPerByte = 1024
)

// checkAllocs runs one connection over data and fails when the heap bytes
// it allocated (TotalAlloc, whatever became garbage since) exceed the bound.
func checkAllocs(t *testing.T, data []byte, run func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(allocSlack+allocPerByte*len(data)); got > bound {
		t.Fatalf("a %d-byte input allocated %d bytes, more than the %d-byte bound", len(data), got, bound)
	}
}

// FuzzIngestConn feeds arbitrary bytes, after a valid sequenced handshake,
// to handleConn against an in-memory Store, with the server's replies
// crossing a net.Pipe. Whatever the bytes, the server must not panic, the
// session must end, the store must hold exactly the symbols of the batches
// the server acknowledged, and the allocations must stay within the
// checkAllocs bound.
func FuzzIngestConn(f *testing.F) {
	table := fuzzIngestTable()
	syms := make([]symbolic.Symbol, 96)
	for i := range syms {
		syms[i] = table.Encode(float64(i * 41 % 4000))
	}
	valid := transport.AppendSeqTableFrame(nil, 1, table)
	valid, err := transport.AppendSeqSymbolFrame(valid, 2, 900, 900, syms)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(valid, transport.FrameEnd, 0, 0, 0, 0))
	// A longer session: a retransmitted batch, a mid-stream table and a
	// second batch.
	long := append([]byte(nil), valid...)
	long = append(long, valid[len(transport.AppendSeqTableFrame(nil, 1, table)):]...)
	long = transport.AppendSeqTableFrame(long, 3, table)
	if long, err = transport.AppendSeqSymbolFrame(long, 4, 900*97, 900, syms[:7]); err != nil {
		f.Fatal(err)
	}
	f.Add(append(long, transport.FrameEnd, 0, 0, 0, 0))
	// A 'U' frame whose table claims level 64: once a remote crash in
	// symbolic.UnmarshalTable.
	level64 := []byte{transport.FrameSeqTable, 0, 0, 0, 24, 0, 0, 0, 0, 0, 0, 0, 1, 'T', 64}
	f.Add(append(level64, make([]byte, 14)...))
	// A 'D' frame cut short after its table.
	f.Add(valid[:len(valid)-20])
	// Frame headers claiming the largest payload, with nothing after them.
	tableFrame := valid[:len(transport.AppendSeqTableFrame(nil, 1, table))]
	for _, typ := range []byte{transport.FrameSeqTable, transport.FrameSeqSymbol} {
		huge := []byte{typ, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(huge[1:], transport.MaxFrame)
		f.Add(append(append([]byte(nil), tableFrame...), huge...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var stored, acked int
		checkAllocs(t, data, func() { stored, acked = runIngestConn(t, data) })
		if stored != acked {
			t.Fatalf("store holds %d symbols, the acked batches carry %d", stored, acked)
		}
	})
}

// scriptedConn is the server's end of a net.Pipe whose reads come from a
// fixed byte stream instead: the session sees the client's bytes, then a
// clean EOF, while its acks still cross the pipe to the client.
type scriptedConn struct {
	net.Conn
	in io.Reader
}

func (c scriptedConn) Read(p []byte) (int, error) { return c.in.Read(p) }

// runIngestConn runs one ingest connection carrying a sequenced handshake
// followed by data through handleConn, and returns the symbols the store
// holds afterwards and the symbols of the batches the server acknowledged.
func runIngestConn(t *testing.T, data []byte) (stored, acked int) {
	t.Helper()
	svc := New(Config{Shards: 2})
	serverEnd, clientEnd := net.Pipe()
	ackCh := make(chan map[uint64]bool, 1)
	go func() {
		seqs := make(map[uint64]bool)
		fr := transport.NewFrameReader(clientEnd)
		for first := true; ; first = false {
			typ, payload, err := fr.Next()
			if err != nil {
				break
			}
			// The first ack is the handshake reply, not a commit.
			if seq, err := transport.DecodeAck(payload); typ == transport.FrameAck && err == nil && !first {
				seqs[seq] = true
			}
		}
		ackCh <- seqs
	}()
	var stream bytes.Buffer
	if err := transport.WriteHandshake(&stream, 9); err != nil {
		t.Fatal(err)
	}
	stream.Write(data)
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		svc.handleConn(scriptedConn{Conn: serverEnd, in: &stream}, false)
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("session did not end")
	}
	// handleConn closed its end, so the ack reader has seen every ack.
	return svc.Store().TotalSymbols(), ackedSymbols(data, <-ackCh)
}

// ackedSymbols replays the session's commit rule over the client's bytes:
// frames commit in sequence order, a duplicate seq commits nothing, and the
// session ends at the first frame it does not acknowledge. It returns the
// number of symbols in the committed batches.
func ackedSymbols(data []byte, acked map[uint64]bool) int {
	dec := transport.NewDecoder(bytes.NewReader(data))
	var hwm uint64
	n := 0
	for {
		ev, err := dec.Next()
		if err != nil || ev.Type == transport.FrameEnd {
			return n
		}
		if ev.Seq <= hwm {
			continue
		}
		if ev.Seq != hwm+1 || !acked[ev.Seq] {
			return n
		}
		hwm++
		n += len(ev.Points)
	}
}

// TestIngestConnValidStreamCommits pins the FuzzIngestConn harness on a
// well-formed stream, so the fuzz invariant cannot hold vacuously: the
// batch is acked and stored.
func TestIngestConnValidStreamCommits(t *testing.T) {
	table := fuzzIngestTable()
	data := transport.AppendSeqTableFrame(nil, 1, table)
	data, err := transport.AppendSeqSymbolFrame(data, 2, 60, 60, []symbolic.Symbol{table.Encode(1), table.Encode(2)})
	if err != nil {
		t.Fatal(err)
	}
	stored, acked := runIngestConn(t, append(data, transport.FrameEnd, 0, 0, 0, 0))
	if stored != 2 || acked != 2 {
		t.Fatalf("stored %d, acked %d symbols; want 2 and 2", stored, acked)
	}
}

// fuzzQueryHandler answers every op with a well-formed result sized by the
// request, and refuses some meters and every empty range, so the fuzzed
// session encodes 'R' frames of each op and 'X' frames alike.
func fuzzQueryHandler(req transport.QueryRequest, res *transport.QueryResult) error {
	switch {
	case req.T0 >= req.T1:
		return transport.ErrQueryBadRange
	case req.MeterID%5 == 4:
		return transport.ErrQueryUnknownMeter
	}
	*res = transport.QueryResult{ID: req.ID, Op: req.Op, Count: req.MeterID, Sum: float64(req.T0)}
	if req.Op == transport.OpHistogram {
		res.Count = 0
		res.Level = int(req.MeterID % 4)
		res.Counts = make([]uint64, 1<<res.Level)
		res.Counts[0] = req.MeterID
	}
	return nil
}

// FuzzQueryConn feeds arbitrary bytes to handleConn on a query-only
// listener, with the request bytes served from memory and the responses
// crossing a net.Pipe, as FuzzIngestConn does for ingest. Whatever the
// bytes, the server must not panic, the session must end, every response
// must be a well-formed 'R' or 'X' frame carrying an id one of the input's
// requests sent, and the allocations must stay within the checkAllocs
// bound.
func FuzzQueryConn(f *testing.F) {
	req := transport.QueryRequest{ID: 7, Op: transport.OpAggregate, MeterID: 3, T0: 0, T1: 900}
	valid := transport.AppendQueryRequestFrame(nil, req)
	hist := req
	hist.ID, hist.Op, hist.MeterID = 8, transport.OpHistogram, 6
	f.Add(append(transport.AppendQueryRequestFrame(valid, hist), transport.FrameEnd, 0, 0, 0, 0))
	// A request with an unknown op: answered with an 'X' under its id.
	badOp := append([]byte(nil), valid...)
	badOp[6] = 0xee
	f.Add(badOp)
	// A 'Q' frame cut short in its payload.
	f.Add(valid[:20])
	// A 'Q' header claiming the largest frame, and nothing after it.
	f.Add([]byte{transport.FrameQuery, 0xff, 0xff, 0xff, 0xff})
	huge := []byte{transport.FrameQuery, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(huge[1:], transport.MaxFrame)
	f.Add(append(append([]byte(nil), valid...), huge...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var ids []uint64
		checkAllocs(t, data, func() { ids = runQueryConn(t, data) })
		for _, id := range ids {
			if !sentID(data, id) {
				t.Fatalf("response carries id %d, which no request sent", id)
			}
		}
	})
}

// runQueryConn runs one query-only connection carrying data through
// handleConn and returns the ids of the responses, failing on any response
// frame that does not parse.
func runQueryConn(t *testing.T, data []byte) []uint64 {
	t.Helper()
	svc := New(Config{Shards: 2})
	svc.SetQueryHandler(handlerFunc(fuzzQueryHandler))
	serverEnd, clientEnd := net.Pipe()
	type result struct {
		ids []uint64
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		var r result
		var res transport.QueryResult
		fr := transport.NewFrameReader(clientEnd)
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				break
			}
			var qe *transport.QueryError
			if err := transport.DecodeQueryResponse(typ, payload, &res); err != nil && !errors.As(err, &qe) {
				r.err = fmt.Errorf("response frame %q: %w", typ, err)
				break
			}
			r.ids = append(r.ids, res.ID)
		}
		io.Copy(io.Discard, clientEnd)
		resCh <- r
	}()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		svc.handleConn(scriptedConn{Conn: serverEnd, in: bytes.NewReader(data)}, true)
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("session did not end")
	}
	r := <-resCh
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.ids
}

// sentID reports whether id is one the server could have read from data:
// the id of a 'Q' frame before the session's first other frame, or 0 for a
// request too short to carry one.
func sentID(data []byte, id uint64) bool {
	fr := transport.NewFrameReader(bytes.NewReader(data))
	for {
		typ, payload, err := fr.Next()
		if err != nil || typ != transport.FrameQuery {
			return false
		}
		if len(payload) < 11 {
			if id == 0 {
				return true
			}
			continue
		}
		if binary.BigEndian.Uint64(payload[3:11]) == id {
			return true
		}
	}
}

// TestQueryConnAnswersValidRequests pins the FuzzQueryConn harness on
// well-formed input, so its invariant cannot hold vacuously: both requests
// are answered under their own ids.
func TestQueryConnAnswersValidRequests(t *testing.T) {
	data := transport.AppendQueryRequestFrame(nil, transport.QueryRequest{ID: 11, Op: transport.OpCount, MeterID: 2, T1: 60})
	data = transport.AppendQueryRequestFrame(data, transport.QueryRequest{ID: 12, Op: transport.OpHistogram, MeterID: 3, T1: 60})
	ids := runQueryConn(t, append(data, transport.FrameEnd, 0, 0, 0, 0))
	slices.Sort(ids)
	if !slices.Equal(ids, []uint64{11, 12}) {
		t.Fatalf("answered ids %v, want [11 12]", ids)
	}
}
