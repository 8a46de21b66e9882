// Package transport implements the sensor → aggregation-server protocol the
// paper sketches in §2: "the lookup table is built once at the sensor level
// and then sent to the aggregation server before starting to send the
// symbolic data", with support for "rebuilding and resending the lookup
// table periodically or if the distribution of the data changes too much".
//
// The wire format is length-prefixed frames over any io.Writer/io.Reader
// (tested over bytes.Buffer, net.Pipe and real TCP):
//
//	frame   = type(1) | length(uint32 BE) | payload
//	'H'     = session handshake, the first frame of every ingest stream:
//	          version(1) | flags(1) | meterID(uint64 BE). Version must be
//	          ProtocolVersion and flags must carry FlagSequenced.
//	'U'     = sequenced table:  seq(uint64 BE) | marshaled table
//	'D'     = sequenced batch:  seq(uint64 BE) | firstT(int64 BE) |
//	          window(int64 BE) | packed symbols of consecutive windows
//	'A'     = ack:              seq(uint64 BE) — the server's committed
//	          per-meter high-water mark. Sent once as the handshake reply
//	          (so a reconnecting client learns what survived) and once per
//	          committed or duplicate-suppressed 'U'/'D' frame.
//	'E'     = end of stream (empty payload)
//
// A batch holds symbols of consecutive windows only; the sensor starts a
// new batch when a data gap breaks consecutiveness, so timestamps are
// reconstructed exactly.
//
// Sequence numbers start at 1 and increase by exactly one per 'U'/'D'
// frame across the meter's lifetime (not per connection). The server
// commits seq == hwm+1 and advances, suppresses seq <= hwm as a duplicate
// (still acked — that is what makes retry-after-reset exactly-once), and
// tears the session on a gap. Per-frame refusals (storage degraded, shard
// overloaded) arrive as 'X' frames carrying the refused seq in the id
// field; the session survives them, so a client backs off and resends the
// same seq. A handshake the server cannot honour — the retired one-way v1
// shape (version | meterID), another version, or a v2 handshake without
// FlagSequenced — is answered with an 'X' frame carrying QErrVersion.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"symmeter/internal/symbolic"
)

// Frame types as they appear on the wire.
const (
	FrameHandshake byte = 'H'
	FrameEnd       byte = 'E'
	FrameSeqTable  byte = 'U'
	FrameSeqSymbol byte = 'D'
	FrameAck       byte = 'A'
)

// ProtocolVersion is the sensor→server protocol version carried in the
// handshake frame. A server refuses other versions with ErrVersionMismatch
// rather than guessing at frame semantics.
const ProtocolVersion byte = 2

// Handshake flag bits. Unknown bits are rejected, not ignored — a future
// revision that needs more must bump ProtocolVersion.
const (
	// FlagSequenced marks a sequenced, acknowledged session: the server
	// replies to the handshake with an 'A' frame carrying the meter's
	// committed high-water mark and acks every 'U'/'D' frame. Every
	// handshake must carry it.
	FlagSequenced byte = 1 << 0

	flagsKnown = FlagSequenced
)

// maxFrame bounds payload sizes against corrupted length fields.
const maxFrame = 16 << 20

// MaxFrame is the largest payload a peer may send; frames claiming more
// are rejected with ErrFrameTooLarge before any allocation.
const MaxFrame = maxFrame

// Typed protocol errors. Every malformed input maps onto one of these (via
// errors.Is) so servers can tell protocol abuse from transport failures.
var (
	// ErrFrameTooLarge reports a frame header whose length field exceeds
	// MaxFrame.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrVersionMismatch reports a handshake from an incompatible protocol
	// version, including an unsequenced one.
	ErrVersionMismatch = errors.New("transport: protocol version mismatch")
	// ErrBadHandshake reports a missing, truncated, or malformed 'H' frame
	// where a session handshake was required.
	ErrBadHandshake = errors.New("transport: bad handshake frame")
	// ErrSymbolBeforeTable reports a symbol batch arriving before any
	// lookup table, which makes the stream undecodable.
	ErrSymbolBeforeTable = errors.New("transport: symbol frame before any table")
	// ErrUnknownFrame reports a frame type outside the protocol alphabet.
	ErrUnknownFrame = errors.New("transport: unknown frame type")
)

// Handshake identifies one meter's session stream.
type Handshake struct {
	Version byte
	MeterID uint64
}

// Handshake payload sizes: the v2 handshake is version|flags|meterID; the
// retired v1 shape lacks the flags byte and is read only to be refused.
const (
	handshakeLen   = 10
	handshakeLenV1 = 9
)

// WriteHandshake opens a session stream by sending the sequenced 'H' frame
// for the given meter at the current protocol version.
func WriteHandshake(w io.Writer, meterID uint64) error {
	var f [5 + handshakeLen]byte
	f[0] = FrameHandshake
	binary.BigEndian.PutUint32(f[1:5], handshakeLen)
	f[5] = ProtocolVersion
	f[6] = FlagSequenced
	binary.BigEndian.PutUint64(f[7:], meterID)
	_, err := w.Write(f[:])
	return err
}

// ReadHandshake reads and validates the 'H' frame that must open a session
// stream. The frame is read into a fixed array: a header claiming any
// length other than a handshake's is refused before a byte of payload is
// read. Truncated or mistyped frames and unknown flag bits surface as
// ErrBadHandshake (a client that needs semantics this server lacks must not
// be half-understood); a v1 handshake, another version, or a handshake
// without FlagSequenced as ErrVersionMismatch, with the parsed fields
// returned so the refusal can name the meter.
func ReadHandshake(r io.Reader) (Handshake, error) {
	var f [5 + handshakeLen]byte
	if _, err := io.ReadFull(r, f[:5]); err != nil {
		return Handshake{}, fmt.Errorf("%w: %w", ErrBadHandshake, err)
	}
	if f[0] != FrameHandshake {
		return Handshake{}, fmt.Errorf("%w: got frame type %#x, want 'H'", ErrBadHandshake, f[0])
	}
	n := binary.BigEndian.Uint32(f[1:5])
	if n != handshakeLen && n != handshakeLenV1 {
		return Handshake{}, fmt.Errorf("%w: payload of %d bytes, want %d", ErrBadHandshake, n, handshakeLen)
	}
	p := f[5 : 5+n]
	if _, err := io.ReadFull(r, p); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Handshake{}, fmt.Errorf("%w: truncated payload: %w", ErrBadHandshake, err)
	}
	hs := Handshake{Version: p[0]}
	if n == handshakeLenV1 {
		hs.MeterID = binary.BigEndian.Uint64(p[1:])
		return hs, fmt.Errorf("%w: peer speaks unsequenced v%d, server speaks v%d", ErrVersionMismatch, hs.Version, ProtocolVersion)
	}
	flags := p[1]
	hs.MeterID = binary.BigEndian.Uint64(p[2:])
	if hs.Version != ProtocolVersion {
		return hs, fmt.Errorf("%w: peer speaks v%d, server speaks v%d", ErrVersionMismatch, hs.Version, ProtocolVersion)
	}
	if flags&^flagsKnown != 0 {
		return hs, fmt.Errorf("%w: unknown flag bits %#x", ErrBadHandshake, flags&^flagsKnown)
	}
	if flags&FlagSequenced == 0 {
		return hs, fmt.Errorf("%w: unsequenced ingest is not supported", ErrVersionMismatch)
	}
	return hs, nil
}

// ackLen is the exact payload size of an 'A' frame.
const ackLen = 8

// AppendAckFrame appends the complete 'A' frame for seq to buf — the
// server's single-write ack path.
func AppendAckFrame(buf []byte, seq uint64) []byte {
	var p [5 + ackLen]byte
	p[0] = FrameAck
	binary.BigEndian.PutUint32(p[1:5], ackLen)
	binary.BigEndian.PutUint64(p[5:], seq)
	return append(buf, p[:]...)
}

// DecodeAck decodes an 'A' frame payload into the acked sequence number.
func DecodeAck(payload []byte) (uint64, error) {
	if len(payload) != ackLen {
		return 0, fmt.Errorf("transport: ack payload of %d bytes, want %d", len(payload), ackLen)
	}
	return binary.BigEndian.Uint64(payload), nil
}

// AppendSeqTableFrame appends the complete 'U' frame announcing table t
// under seq to buf.
func AppendSeqTableFrame(buf []byte, seq uint64, t *symbolic.Table) []byte {
	body := symbolic.MarshalTable(t)
	var hdr [13]byte
	hdr[0] = FrameSeqTable
	binary.BigEndian.PutUint32(hdr[1:5], uint32(8+len(body)))
	binary.BigEndian.PutUint64(hdr[5:13], seq)
	return append(append(buf, hdr[:]...), body...)
}

// AppendSeqSymbolFrame appends the complete 'D' frame carrying symbols at
// timestamps firstT + i*window under seq to buf — one buffer, one Write,
// zero allocations once buf has capacity. Symbols of mixed levels are a
// caller bug reported as an error, with buf returned at its original
// length.
func AppendSeqSymbolFrame(buf []byte, seq uint64, firstT, window int64, symbols []symbolic.Symbol) ([]byte, error) {
	start := len(buf)
	var hdr [29]byte
	hdr[0] = FrameSeqSymbol
	binary.BigEndian.PutUint64(hdr[5:13], seq)
	binary.BigEndian.PutUint64(hdr[13:21], uint64(firstT))
	binary.BigEndian.PutUint64(hdr[21:29], uint64(window))
	buf = append(buf, hdr[:]...)
	out, err := symbolic.AppendPack(buf, symbols)
	if err != nil {
		return buf[:start], err
	}
	binary.BigEndian.PutUint32(out[start+1:start+5], uint32(len(out)-start-5))
	return out, nil
}

// Event is one decoded protocol frame, as produced by Decoder.Next.
type Event struct {
	// Type is the frame type: FrameSeqTable, FrameSeqSymbol or FrameEnd.
	Type byte
	// Seq is the batch sequence number for FrameSeqTable and FrameSeqSymbol
	// events; zero otherwise.
	Seq uint64
	// Table is set for FrameSeqTable events.
	Table *symbolic.Table
	// Points is set for FrameSeqSymbol events: the batch's symbols with
	// their reconstructed window-end timestamps. The slice aliases the
	// Decoder's reusable scratch buffer and is valid only until the next
	// call to Next; callers that retain it must copy it.
	Points []symbolic.SymbolPoint
}

// Decoder incrementally decodes a sensor stream frame by frame, handing
// each table and symbol batch to the caller as it arrives, which is what a
// concurrent per-meter session loop needs: state lands in a shared store
// batch-by-batch instead of accumulating per connection.
//
// The Decoder owns three scratch buffers — the FrameReader's payload, the
// unpacked symbols and the emitted points — that are reused across Next
// calls, so a steady-state session decodes symbol batches without
// allocating.
type Decoder struct {
	fr     FrameReader
	tables int

	syms []symbolic.Symbol
	pts  []symbolic.SymbolPoint
}

// NewDecoder wraps a reader positioned after the handshake.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{fr: FrameReader{r: r}} }

// TableEstablished marks the stream's symbol-before-table precondition as
// met out of band. A reconnecting sequenced session resumes against the
// table its meter already committed — the server seeds the fresh decoder
// instead of making the client re-announce a table the handshake's
// high-water mark proves is durable.
func (d *Decoder) TableEstablished() { d.tables++ }

// Next decodes one frame. It returns io.EOF only on a clean stream end
// between frames; an FrameEnd event signals orderly protocol shutdown.
//
// The returned event's Points slice is reused by the next call; see Event.
func (d *Decoder) Next() (Event, error) {
	typ, payload, err := d.fr.Next()
	if err != nil {
		return Event{}, err
	}
	switch typ {
	case FrameSeqTable:
		if len(payload) < 8 {
			return Event{}, errors.New("transport: short sequenced table frame")
		}
		seq := binary.BigEndian.Uint64(payload[0:8])
		t, err := symbolic.UnmarshalTable(payload[8:])
		if err != nil {
			return Event{}, fmt.Errorf("transport: bad table frame: %w", err)
		}
		d.tables++
		return Event{Type: FrameSeqTable, Seq: seq, Table: t}, nil
	case FrameSeqSymbol:
		if len(payload) < 8 {
			return Event{}, errors.New("transport: short sequenced symbol frame")
		}
		seq := binary.BigEndian.Uint64(payload[0:8])
		pts, err := d.decodeBatch(payload[8:])
		if err != nil {
			return Event{}, err
		}
		return Event{Type: FrameSeqSymbol, Seq: seq, Points: pts}, nil
	case FrameEnd:
		return Event{Type: FrameEnd}, nil
	case FrameHandshake:
		return Event{}, fmt.Errorf("%w: handshake after session start", ErrBadHandshake)
	default:
		return Event{}, fmt.Errorf("%w: %#x", ErrUnknownFrame, typ)
	}
}

// decodeBatch decodes a 'D' frame's firstT | window | packed body into the
// reusable point scratch.
func (d *Decoder) decodeBatch(body []byte) ([]symbolic.SymbolPoint, error) {
	if d.tables == 0 {
		return nil, ErrSymbolBeforeTable
	}
	if len(body) < 16 {
		return nil, errors.New("transport: short symbol frame")
	}
	firstT := int64(binary.BigEndian.Uint64(body[0:8]))
	window := int64(binary.BigEndian.Uint64(body[8:16]))
	if window <= 0 {
		return nil, errors.New("transport: bad window in symbol frame")
	}
	var err error
	d.syms, err = symbolic.UnpackInto(d.syms, body[16:])
	if err != nil {
		return nil, fmt.Errorf("transport: bad symbol frame: %w", err)
	}
	if cap(d.pts) < len(d.syms) {
		d.pts = make([]symbolic.SymbolPoint, len(d.syms))
	}
	pts := d.pts[:len(d.syms)]
	for i, sym := range d.syms {
		pts[i] = symbolic.SymbolPoint{T: firstT + int64(i)*window, S: sym}
	}
	return pts, nil
}
