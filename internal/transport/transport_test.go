package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
)

func testTable(t *testing.T) *symbolic.Table {
	t.Helper()
	vals := make([]float64, 512)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	table, err := symbolic.Learn(symbolic.MethodMedian, vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// encodeStream symbolizes pts at the given window and frames the result as
// one 'U' table frame (seq 1) followed by 'D' batches of up to batch
// consecutive windows (seq 2, 3, ...) and the 'E' terminator. It returns
// the stream and the symbols it carries.
func encodeStream(t *testing.T, table *symbolic.Table, window int64, batch int, pts []timeseries.Point) ([]byte, []symbolic.SymbolPoint) {
	t.Helper()
	enc := symbolic.NewEncoder(table, window)
	var want []symbolic.SymbolPoint
	for _, p := range pts {
		sp, ok, err := enc.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want = append(want, sp)
		}
	}
	if sp, ok := enc.Flush(); ok {
		want = append(want, sp)
	}
	buf := AppendSeqTableFrame(nil, 1, table)
	seq := uint64(1)
	syms := make([]symbolic.Symbol, 0, batch)
	for i := 0; i < len(want); {
		j := i + 1
		for j < len(want) && j-i < batch && want[j].T == want[j-1].T+window {
			j++
		}
		syms = syms[:0]
		for _, sp := range want[i:j] {
			syms = append(syms, sp.S)
		}
		seq++
		var err error
		if buf, err = AppendSeqSymbolFrame(buf, seq, want[i].T, window, syms); err != nil {
			t.Fatal(err)
		}
		i = j
	}
	return append(buf, FrameEnd, 0, 0, 0, 0), want
}

// decodeAll drains a stream through a Decoder up to its 'E' frame,
// returning the tables and a copy of every decoded point.
func decodeAll(r io.Reader) (tables int, pts []symbolic.SymbolPoint, err error) {
	dec := NewDecoder(r)
	for {
		ev, err := dec.Next()
		if err != nil {
			return tables, pts, err
		}
		switch ev.Type {
		case FrameSeqTable:
			tables++
		case FrameSeqSymbol:
			pts = append(pts, ev.Points...)
		case FrameEnd:
			return tables, pts, nil
		}
	}
}

func TestRoundTripBuffer(t *testing.T) {
	table := testTable(t)
	rng := rand.New(rand.NewSource(2))
	raw := make([]timeseries.Point, 600)
	for i := range raw {
		raw[i] = timeseries.Point{T: int64(i), V: rng.Float64() * 1000}
	}
	data, want := encodeStream(t, table, 60, 10, raw)
	tables, got, err := decodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tables != 1 {
		t.Fatalf("tables = %d", tables)
	}
	if len(got) != len(want) {
		t.Fatalf("points = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestOverNetPipe(t *testing.T) {
	table := testTable(t)
	client, srvConn := net.Pipe()
	// net.Pipe is fully synchronous; deadlines turn any protocol stall into
	// an error instead of a hang.
	deadline := time.Now().Add(30 * time.Second)
	_ = client.SetDeadline(deadline)
	_ = srvConn.SetDeadline(deadline)

	raw := make([]timeseries.Point, 200)
	for i := range raw {
		raw[i] = timeseries.Point{T: int64(i), V: float64(i)}
	}
	data, _ := encodeStream(t, table, 10, 4, raw)
	type result struct {
		pts []symbolic.SymbolPoint
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, pts, err := decodeAll(srvConn)
		done <- result{pts, err}
	}()
	if _, err := client.Write(data); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.pts) != 20 {
		t.Fatalf("points = %d, want 20", len(res.pts))
	}
}

// TestServerErrors pins the decoder's refusals of broken streams.
func TestServerErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"unknown frame", []byte{'Z', 0, 0, 0, 0}},
		{"truncated frame", []byte{FrameSeqTable, 0, 0, 1, 0}}, // claims 256 bytes, has none
		{"oversized length", []byte{FrameSeqTable, 0xFF, 0xFF, 0xFF, 0xFF}},
		{"short sequenced table", []byte{FrameSeqTable, 0, 0, 0, 4, 0, 0, 0, 1}},
		{"short sequenced batch", []byte{FrameSeqSymbol, 0, 0, 0, 4, 0, 0, 0, 1}},
	} {
		if _, _, err := decodeAll(bytes.NewReader(tc.stream)); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: err = %v, want a decode error", tc.name, err)
		}
	}
	// A stream cut cleanly between frames is io.EOF, which the session
	// reports as a disconnect without end frame.
	if _, err := NewDecoder(bytes.NewReader(nil)).Next(); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

func TestCorruptedPayloadSurfaces(t *testing.T) {
	table := testTable(t)
	raw := make([]timeseries.Point, 100)
	for i := range raw {
		raw[i] = timeseries.Point{T: int64(i), V: 1}
	}
	data, _ := encodeStream(t, table, 10, 4, raw)
	// Flip the level byte of the table frame payload (after the 5-byte
	// header, the 8-byte seq and the 'T' marker): the frame length no longer
	// matches the declared alphabet and decoding must fail loudly.
	data[14] ^= 0xFF
	if _, _, err := decodeAll(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted table frame should error")
	}
}

// --- Handshake + Decoder protocol edges ----------------------------------

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	hs, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Version != ProtocolVersion || hs.MeterID != 0xDEADBEEF {
		t.Fatalf("handshake = %+v", hs)
	}
}

func TestReadHandshakeWrongFrameType(t *testing.T) {
	// The stream starts with a 'U' frame, not 'H'.
	data := AppendSeqTableFrame(nil, 1, testTable(t))
	if _, err := ReadHandshake(bytes.NewReader(data)); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

func TestReadHandshakeTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 7); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < buf.Len(); cut++ {
		_, err := ReadHandshake(bytes.NewReader(buf.Bytes()[:cut]))
		if !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("cut=%d err = %v, want ErrBadHandshake", cut, err)
		}
	}
}

func TestReadHandshakeShortPayload(t *testing.T) {
	var buf bytes.Buffer
	// A well-formed frame of type 'H' whose payload is 3 bytes, not 10.
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 3, ProtocolVersion, 0, 0})
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

// TestReadHandshakeHugeClaimNoAlloc: a bare 'H' header claiming MaxFrame
// bytes is refused from the header alone — no payload read, no buffer
// sized by the claim.
func TestReadHandshakeHugeClaimNoAlloc(t *testing.T) {
	hdr := []byte{FrameHandshake, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadHandshake(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("refusing a %d-byte claim allocated %d bytes", MaxFrame, grew)
	}
}

func TestReadHandshakeVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 9, ProtocolVersion + 1, 0, 0, 0, 0, 0, 0, 0, 1})
	hs, err := ReadHandshake(&buf)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if hs.Version != ProtocolVersion+1 || hs.MeterID != 1 {
		t.Fatalf("mismatching handshake should still be parsed, got %+v", hs)
	}
}

func TestOversizedFrameTyped(t *testing.T) {
	var buf bytes.Buffer
	var hdr [5]byte
	hdr[0] = FrameSeqTable
	binary.BigEndian.PutUint32(hdr[1:], MaxFrame+1)
	buf.Write(hdr[:])
	if _, err := NewDecoder(&buf).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("decoder err = %v, want ErrFrameTooLarge", err)
	}
	buf.Reset()
	buf.Write(hdr[:])
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("handshake err = %v, want ErrBadHandshake", err)
	}
}

func TestDecoderSymbolBeforeTable(t *testing.T) {
	data := buildSymbolStream(t, testTable(t), 2, 4)
	// Skip the leading table frame so the first thing seen is 'D'.
	tableLen := binary.BigEndian.Uint32(data[1:5])
	stream := data[5+tableLen:]
	if _, err := NewDecoder(bytes.NewReader(stream)).Next(); !errors.Is(err, ErrSymbolBeforeTable) {
		t.Fatalf("err = %v, want ErrSymbolBeforeTable", err)
	}
}

func TestDecoderRejectsLateHandshake(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(&buf).Next(); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

// TestDecoderUnknownFrameTyped: bytes outside the alphabet — including the
// retired one-way 'T' and 'S' frames — are typed protocol errors.
func TestDecoderUnknownFrameTyped(t *testing.T) {
	for _, typ := range []byte{'Z', 'T', 'S'} {
		frame := []byte{typ, 0, 0, 0, 0}
		if _, err := NewDecoder(bytes.NewReader(frame)).Next(); !errors.Is(err, ErrUnknownFrame) {
			t.Fatalf("%q: err = %v, want ErrUnknownFrame", typ, err)
		}
	}
}

// buildSymbolStream returns one table frame, `frames` symbol batches of
// `batch` consecutive one-second windows each, and the end frame.
func buildSymbolStream(t *testing.T, table *symbolic.Table, frames, batch int) []byte {
	t.Helper()
	buf := AppendSeqTableFrame(nil, 1, table)
	syms := make([]symbolic.Symbol, batch)
	for f := 0; f < frames; f++ {
		for i := range syms {
			syms[i] = table.Encode(float64((f*batch + i) % 500))
		}
		var err error
		if buf, err = AppendSeqSymbolFrame(buf, uint64(f+2), int64(f*batch), 1, syms); err != nil {
			t.Fatal(err)
		}
	}
	return append(buf, FrameEnd, 0, 0, 0, 0)
}

// TestDecoderNextZeroAlloc enforces the Decoder's buffer-reuse contract:
// after its scratch buffers reach the working size, decoding a symbol frame
// must not allocate.
func TestDecoderNextZeroAlloc(t *testing.T) {
	table := testTable(t)
	const frames = 300
	data := buildSymbolStream(t, table, frames, 96)
	dec := NewDecoder(bytes.NewReader(data))
	// Warm up: table frame plus a few symbol frames grow the scratch buffers.
	for i := 0; i < 4; i++ {
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		ev, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type != FrameSeqSymbol || len(ev.Points) == 0 {
			t.Fatalf("unexpected event %c with %d points", ev.Type, len(ev.Points))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decoder.Next allocates %.1f times per run, want 0", allocs)
	}
}

// TestDecoderPointsReused pins the documented valid-until-next-call
// semantics: the Points slice aliases decoder scratch across calls.
func TestDecoderPointsReused(t *testing.T) {
	table := testTable(t)
	data := buildSymbolStream(t, table, 3, 8)
	dec := NewDecoder(bytes.NewReader(data))
	if _, err := dec.Next(); err != nil { // table frame
		t.Fatal(err)
	}
	ev1, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	first := ev1.Points[0]
	ev2, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &ev1.Points[0] != &ev2.Points[0] {
		t.Fatal("decoder allocated a fresh Points slice; expected scratch reuse")
	}
	if ev1.Points[0] == first {
		t.Fatal("second Next did not overwrite the reused batch (test fixture too uniform)")
	}
}

// TestAppendSeqSymbolFrameZeroAlloc enforces the sensor-side contract:
// framing a batch into a reused buffer must not allocate, and a rejected
// batch leaves the buffer at its original length.
func TestAppendSeqSymbolFrameZeroAlloc(t *testing.T) {
	table := testTable(t)
	syms := make([]symbolic.Symbol, 96)
	for i := range syms {
		syms[i] = table.Encode(float64(i * 7 % 700))
	}
	buf, err := AppendSeqSymbolFrame(nil, 1, 0, 900, syms) // grow the buffer
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(1)
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		if buf, err = AppendSeqSymbolFrame(buf[:0], seq, int64(seq)*86400, 900, syms); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendSeqSymbolFrame allocates %.1f times per run, want 0", allocs)
	}
	mixed := []symbolic.Symbol{symbolic.NewSymbol(1, 3), symbolic.NewSymbol(1, 4)}
	n := len(buf)
	if out, err := AppendSeqSymbolFrame(buf, 9, 0, 900, mixed); err == nil || len(out) != n {
		t.Fatalf("mixed-level batch: len %d err %v, want len %d and an error", len(out), err, n)
	}
}

// --- Protocol v2: sequenced handshake, acks, sequenced frames -------------

// TestHandshakeV1Refused: the retired one-way handshakes — v1's flag-less
// shape and a v2 handshake without FlagSequenced — are version mismatches,
// parsed far enough to name the meter.
func TestHandshakeV1Refused(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 42})
	hs, err := ReadHandshake(&buf)
	if !errors.Is(err, ErrVersionMismatch) || hs.Version != 1 || hs.MeterID != 42 {
		t.Fatalf("v1 handshake: hs = %+v err = %v, want v1 meter 42 and ErrVersionMismatch", hs, err)
	}
	buf.Reset()
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 10, ProtocolVersion, 0, 0, 0, 0, 0, 0, 0, 0, 7})
	hs, err = ReadHandshake(&buf)
	if !errors.Is(err, ErrVersionMismatch) || hs.MeterID != 7 {
		t.Fatalf("unsequenced v2 handshake: hs = %+v err = %v, want meter 7 and ErrVersionMismatch", hs, err)
	}
}

// TestHandshakeFlagsRoundTrip pins the handshake's wire bytes: every
// handshake written is the 15-byte v2 frame with FlagSequenced set.
func TestHandshakeFlagsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 7); err != nil {
		t.Fatal(err)
	}
	want := []byte{FrameHandshake, 0, 0, 0, 10, ProtocolVersion, FlagSequenced, 0, 0, 0, 0, 0, 0, 0, 7}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("handshake bytes % x, want % x", buf.Bytes(), want)
	}
	hs, err := ReadHandshake(&buf)
	if err != nil || hs.Version != ProtocolVersion || hs.MeterID != 7 {
		t.Fatalf("hs = %+v err = %v, want v%d meter 7", hs, err, ProtocolVersion)
	}
}

func TestHandshakeUnknownFlagBitsRejected(t *testing.T) {
	var buf bytes.Buffer
	payload := make([]byte, 10)
	payload[0] = ProtocolVersion
	payload[1] = FlagSequenced | 0x80
	binary.BigEndian.PutUint64(payload[2:], 1)
	buf.Write([]byte{FrameHandshake, 0, 0, 0, 10})
	buf.Write(payload)
	if _, err := ReadHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake for unknown flag bits", err)
	}
}

func TestAckFrameRoundTrip(t *testing.T) {
	frame := AppendAckFrame(nil, 0xCAFEBABE12345678)
	fr := NewFrameReader(bytes.NewReader(frame))
	typ, payload, err := fr.Next()
	if err != nil || typ != FrameAck {
		t.Fatalf("frame = (%#x, %v), want 'A'", typ, err)
	}
	seq, err := DecodeAck(payload)
	if err != nil || seq != 0xCAFEBABE12345678 {
		t.Fatalf("DecodeAck = (%#x, %v)", seq, err)
	}
	if _, err := DecodeAck(payload[:4]); err == nil {
		t.Fatal("truncated ack payload decoded")
	}
}

// TestDecoderSequencedFrames round-trips a 'U' and a 'D' frame and pins
// their documented byte layout.
func TestDecoderSequencedFrames(t *testing.T) {
	table := testTable(t)
	body := symbolic.MarshalTable(table)
	data := AppendSeqTableFrame(nil, 1, table)
	if len(data) != 13+len(body) || data[0] != FrameSeqTable ||
		binary.BigEndian.Uint32(data[1:5]) != uint32(8+len(body)) ||
		binary.BigEndian.Uint64(data[5:13]) != 1 || !bytes.Equal(data[13:], body) {
		t.Fatalf("'U' frame layout drifted: % x", data[:13])
	}

	// 'D' seq=2: firstT=100, window=10, three symbols.
	syms := []symbolic.Symbol{
		symbolic.NewSymbol(1, table.Level()),
		symbolic.NewSymbol(2, table.Level()),
		symbolic.NewSymbol(3, table.Level()),
	}
	packed, err := symbolic.Pack(syms)
	if err != nil {
		t.Fatal(err)
	}
	tl := len(data)
	data, err = AppendSeqSymbolFrame(data, 2, 100, 10, syms)
	if err != nil {
		t.Fatal(err)
	}
	d := data[tl:]
	if len(d) != 29+len(packed) || d[0] != FrameSeqSymbol ||
		binary.BigEndian.Uint32(d[1:5]) != uint32(24+len(packed)) ||
		binary.BigEndian.Uint64(d[5:13]) != 2 || binary.BigEndian.Uint64(d[13:21]) != 100 ||
		binary.BigEndian.Uint64(d[21:29]) != 10 || !bytes.Equal(d[29:], packed) {
		t.Fatalf("'D' frame layout drifted: % x", d[:29])
	}

	dec := NewDecoder(bytes.NewReader(data))
	ev, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != FrameSeqTable || ev.Seq != 1 || ev.Table == nil {
		t.Fatalf("first event = %+v, want seq table seq=1", ev)
	}
	ev, err = dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != FrameSeqSymbol || ev.Seq != 2 || len(ev.Points) != 3 {
		t.Fatalf("second event = %+v, want seq batch seq=2 with 3 points", ev)
	}
	for i, p := range ev.Points {
		if p.T != 100+int64(i)*10 {
			t.Fatalf("point %d at t=%d, want %d", i, p.T, 100+int64(i)*10)
		}
	}
}

func TestDecoderSeqSymbolBeforeTable(t *testing.T) {
	var buf bytes.Buffer
	hdr := []byte{FrameSeqSymbol, 0, 0, 0, 24}
	buf.Write(hdr)
	buf.Write(make([]byte, 24))
	if _, err := NewDecoder(&buf).Next(); !errors.Is(err, ErrSymbolBeforeTable) {
		t.Fatalf("err = %v, want ErrSymbolBeforeTable", err)
	}
}

func TestRetryablePredicate(t *testing.T) {
	for _, err := range []error{ErrServerDegraded, ErrServerOverloaded, ErrServerDraining, ErrMeterBusy} {
		if !Retryable(err) {
			t.Fatalf("Retryable(%v) = false, want true", err)
		}
	}
	for code, sentinel := range map[byte]error{
		VerdictDegraded:   ErrServerDegraded,
		VerdictOverloaded: ErrServerOverloaded,
		VerdictDraining:   ErrServerDraining,
		VerdictBusy:       ErrMeterBusy,
	} {
		qe := &QueryError{Code: code, Msg: "x"}
		if !errors.Is(qe, sentinel) {
			t.Fatalf("QueryError code %d does not match its sentinel", code)
		}
		if !Retryable(qe) {
			t.Fatalf("Retryable(code %d) = false, want true", code)
		}
	}
	version := &QueryError{Code: QErrVersion}
	if !errors.Is(version, ErrVersionMismatch) || Retryable(version) {
		t.Fatal("a version refusal must match ErrVersionMismatch and not be retryable")
	}
	if Retryable(&QueryError{Code: QErrInternal}) || Retryable(io.EOF) || Retryable(nil) {
		t.Fatal("non-retryable error classified retryable")
	}
}
