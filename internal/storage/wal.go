package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
)

// Per-shard write-ahead log.
//
// Every table push and every batch a session commits is framed into the
// shard's log before it commits to the in-memory store, so the log's record
// sequence is, per meter, exactly the ingest history — replaying it through
// the normal Append path rebuilds byte-identical block chains. Records from
// different meters of one shard interleave in commit order, which is
// irrelevant to recovery (records carry their meter ID and each meter's
// subsequence is totally ordered by its single session).
//
// Record framing:
//
//	n(uint32 BE) | ^n(uint32 BE) | crc32c(body)(uint32 BE) | body
//	body = type(1) | payload
//
// The redundant ^n field plus a forward resync scan let replay tell a torn
// tail from corruption. A process crash can only leave a byte *prefix* of
// the last write, but an OS or power crash can persist the final record's
// pages out of order — a complete-looking header over a damaged body, or
// vice versa — so "in bounds" alone cannot condemn a file. Replay therefore
// applies two rules:
//
//   - Damage with NO structurally valid record anywhere after it is a torn
//     tail: everything before it is intact, the damaged region was the last
//     thing in flight (and was never acknowledged as durable under the sync
//     mode in use when the failure could lose it), and the file is
//     truncated back to the last whole record.
//   - Damage *followed by* a valid record — a flipped bit in the middle of
//     the log — is corruption and fails recovery loudly with ErrWALCorrupt:
//     records after the damage are readable and acknowledged, and the log
//     never silently drops them.
//
// The resync scan walks the remaining bytes with the cheap n == ^inv header
// probe and confirms a candidate only if its CRC also matches, so random
// damage cannot fake a successor record (probability ~2^-64 per offset).
//
// Record types ('T' and 'B' are read-only legacy records: format ≤ 2
// directories hold them, nothing writes them any more):
//
//	'T': meterID(uint64) | symbolic.MarshalTable bytes — an unsequenced
//	     table push
//	'B': meterID(uint64) | epoch(uint32) | level(uint8) | kind(uint8) |
//	     count(uint32) | timestamps | packed symbols (headerless, MSB-first)
//	     kind 0 (arithmetic): timestamps = firstT(int64) | stride(int64)
//	     kind 1 (explicit):   timestamps = count × int64
//	     — an unsequenced batch
//	't': seq(uint64) | 'T' body — a table push committed under a session
//	     sequence number (manifest format ≥ 3)
//	'b': seq(uint64) | 'B' body — a batch committed under a session
//	     sequence number (manifest format ≥ 3)
//	'C': meterID(uint64) | seq(uint64) | covered(uint64) |
//	     tables(uint32) | per table: len(uint32) | MarshalTable bytes |
//	     blocks(uint32) | per block: epoch(uint32) | level(uint8) |
//	     n(uint32) | firstT(int64) | stride(int64) | packed symbols
//	     — one meter's whole state as of a log rotation (manifest format
//	     ≥ 4): its table history, its sequence high-water mark, how many
//	     of its points the manifest's segments held (covered), and the
//	     blocks after those points, in chain order. A checkpoint is the
//	     first record of its meter in the rotated generation.
//
// Batches off the wire are arithmetic in practice (the transport already
// reconstructs firstT + i·window), so kind 0 — 16 bytes for any batch — is
// the hot encoding; kind 1 keeps the log lossless for any timestamps. The
// seq is what makes ingest exactly-once: recovery restores each meter's
// sequence high-water mark as the max seq across every replayed record
// (0 for a meter with legacy records only), so a reconnecting client learns
// which batches survived the crash and replays only the rest. A checkpoint
// stands in for every record of its meter that came before it, which is
// what lets a rotation unlink the older generations.
const (
	walHeaderLen  = 12
	recTable      = 'T'
	recBatch      = 'B'
	recSeqTable   = 't'
	recSeqBatch   = 'b'
	recCheckpoint = 'C'
	// maxWALRecord bounds a record body against corrupted length fields,
	// mirroring the transport's frame cap.
	maxWALRecord = 16 << 20
)

// crcC is the Castagnoli table (CRC-32C, the storage-standard polynomial
// with hardware support on current CPUs).
var crcC = crc32.MakeTable(crc32.Castagnoli)

// ErrWALCorrupt reports WAL bytes that are damaged somewhere other than a
// torn tail; recovery refuses to guess and fails loudly.
var ErrWALCorrupt = errors.New("storage: wal corrupt")

// SyncMode selects the WAL durability/latency trade (see the README's
// fsync-vs-throughput numbers).
type SyncMode int

const (
	// SyncOff never fsyncs: a batch is acknowledged once write(2) returns,
	// which survives process death (kill -9) but not OS/power failure.
	SyncOff SyncMode = iota
	// SyncGroup acknowledges after write(2) and lets a background syncer
	// fsync all shard logs on a short interval: OS-crash loss is bounded by
	// that interval, per-append latency stays at SyncOff levels.
	SyncGroup
	// SyncAlways blocks each append until an fsync covers its record.
	// Concurrent appenders share fsyncs leader-style (group commit), so the
	// cost amortizes across sessions, not per batch.
	SyncAlways
)

// ParseSyncMode maps the -fsync flag values off|group|always.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync mode %q (want off, group or always)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncOff:
		return "off"
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// errWALPoisoned marks a wal that refused a write because an earlier write
// on it already failed: the file may hold a torn record at its tail, so
// writing more behind it would bury the tear mid-log and turn a tolerated
// torn tail into fatal ErrWALCorrupt at recovery. The engine reacts by
// retrying on the replacement wal if a heal has rotated one in, or
// surfacing the original failure if not.
var errWALPoisoned = errors.New("storage: wal poisoned by earlier write failure")

// wal is one shard's append-only log: one generation of it.
type wal struct {
	mu  sync.Mutex // serializes record assembly + write
	f   File
	gen uint64
	buf []byte // record assembly scratch, reused across appends

	// failed latches the first write error (under mu): the file may end in
	// a torn record, so every later write is refused with errWALPoisoned.
	failed error

	// written is the end offset of the last fully-written record, read by
	// the sync side without the append lock.
	written atomic.Int64

	// Leader-based group commit: the first waiter past the synced watermark
	// runs the fsync for everyone behind it.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool
	synced   int64
	syncErr  error
}

func newWAL(f File, gen uint64, off int64) *wal {
	w := &wal{f: f, gen: gen}
	w.written.Store(off)
	w.synced = off
	w.syncCond = sync.NewCond(&w.syncMu)
	return w
}

// appendRecord frames body (type byte already first) and writes it in a
// single Write, returning the record's end offset. The caller owns making
// body through beginRecord/w.buf under w.mu; appendRecord is called with
// w.mu held.
func (w *wal) writeLocked(buf []byte) (int64, error) {
	if w.failed != nil {
		return 0, fmt.Errorf("%w: %w", errWALPoisoned, w.failed)
	}
	frameRecordAt(buf)
	if _, err := w.f.Write(buf); err != nil {
		// A partial append leaves a torn tail — exactly what replay
		// tolerates — but this wal must never write behind it: a record
		// after the tear would make it mid-log corruption.
		w.failed = err
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	end := w.written.Add(int64(len(buf)))
	return end, nil
}

// frameRecordAt fills in the header of rec, one record whose body (type
// byte first) follows the walHeaderLen placeholder bytes.
func frameRecordAt(rec []byte) {
	bodyLen := len(rec) - walHeaderLen
	binary.BigEndian.PutUint32(rec[0:], uint32(bodyLen))
	binary.BigEndian.PutUint32(rec[4:], ^uint32(bodyLen))
	binary.BigEndian.PutUint32(rec[8:], crc32.Checksum(rec[walHeaderLen:], crcC))
}

// walHdrZero is the placeholder the record builders reserve up front and
// writeLocked fills in, keeping assembly append-only and allocation-free.
var walHdrZero [walHeaderLen]byte

// begin starts a record of type typ under seq in w.buf: the header
// placeholder writeLocked fills in, the type byte and the seq. Called with
// w.mu held.
func (w *wal) begin(typ byte, seq uint64) []byte {
	buf := append(w.buf[:0], walHdrZero[:]...)
	buf = append(buf, typ)
	return binary.BigEndian.AppendUint64(buf, seq)
}

// appendTableSeq logs a table push committed under a session sequence number.
func (w *wal) appendTableSeq(meterID, seq uint64, t *symbolic.Table) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = appendTableBody(w.begin(recSeqTable, seq), meterID, t)
	return w.writeLocked(w.buf)
}

// appendBatchSeq logs one batch committed under a session sequence number.
func (w *wal) appendBatchSeq(meterID, seq uint64, epoch uint32, level int, pts []symbolic.SymbolPoint) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = appendBatchBody(w.begin(recSeqBatch, seq), meterID, epoch, level, pts)
	return w.writeLocked(w.buf)
}

// appendTableBody appends a 'T' record's payload.
func appendTableBody(dst []byte, meterID uint64, t *symbolic.Table) []byte {
	dst = binary.BigEndian.AppendUint64(dst, meterID)
	return append(dst, symbolic.MarshalTable(t)...)
}

// appendBatchBody appends a 'B' record's payload: the batch under the
// meter's epoch at level, arithmetic timestamps when they are.
func appendBatchBody(dst []byte, meterID uint64, epoch uint32, level int, pts []symbolic.SymbolPoint) []byte {
	dst = binary.BigEndian.AppendUint64(dst, meterID)
	dst = binary.BigEndian.AppendUint32(dst, epoch)
	dst = append(dst, byte(level))
	kind := byte(0)
	if !arithmetic(pts) {
		kind = 1
	}
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(pts)))
	if kind == 0 {
		var firstT, stride int64
		if len(pts) > 0 {
			firstT = pts[0].T
		}
		if len(pts) > 1 {
			stride = pts[1].T - pts[0].T
		}
		dst = binary.BigEndian.AppendUint64(dst, uint64(firstT))
		dst = binary.BigEndian.AppendUint64(dst, uint64(stride))
	} else {
		for i := range pts {
			dst = binary.BigEndian.AppendUint64(dst, uint64(pts[i].T))
		}
	}
	return appendPackedPoints(dst, pts, level)
}

// arithmetic reports whether the batch timestamps form one arithmetic
// progression (any common difference, including zero), the compact WAL
// encoding.
func arithmetic(pts []symbolic.SymbolPoint) bool {
	if len(pts) < 3 {
		return true
	}
	stride := pts[1].T - pts[0].T
	for i := 2; i < len(pts); i++ {
		if pts[i].T-pts[i-1].T != stride {
			return false
		}
	}
	return true
}

// appendPackedPoints packs the batch symbols MSB-first at the given level —
// the codec's headerless bit layout (count and level live in the record).
func appendPackedPoints(dst []byte, pts []symbolic.SymbolPoint, level int) []byte {
	var acc uint64
	accBits := 0
	for i := range pts {
		acc = acc<<uint(level) | uint64(pts[i].S.Index())
		accBits += level
		for accBits >= 8 {
			accBits -= 8
			dst = append(dst, byte(acc>>uint(accBits)))
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc<<uint(8-accBits)))
	}
	return dst
}

// syncTo blocks until an fsync covers offset upto. The first blocked caller
// becomes the leader and syncs everything written so far; later callers
// piggyback on that fsync or the next one.
func (w *wal) syncTo(upto int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.synced >= upto {
			return nil
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		target := w.written.Load()
		w.syncMu.Unlock()
		err := w.f.Sync()
		w.syncMu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = fmt.Errorf("storage: wal fsync: %w", err)
		} else if target > w.synced {
			w.synced = target
		}
		w.syncCond.Broadcast()
	}
}

// dirty reports whether written records are not yet covered by an fsync —
// what the SyncGroup background syncer polls.
func (w *wal) dirty() bool {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncErr == nil && w.synced < w.written.Load()
}

// errWALClosed is what syncTo reports on a log that close retired.
var errWALClosed = errors.New("storage: wal closed")

// close waits out an fsync in flight — the group syncer does not hold the
// shard gate a rotation closes logs under — and makes later syncs fail
// instead of touching the closed file.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncMu.Lock()
	for w.syncing {
		w.syncCond.Wait()
	}
	if w.syncErr == nil {
		w.syncErr = errWALClosed
	}
	w.syncMu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// --- Replay ----------------------------------------------------------------

// walRecord is one parsed record plus its end offset in the file (the
// truncation point if everything after it turns out torn).
type walRecord struct {
	typ  byte
	data []byte // payload after the type byte, aliasing the read buffer
	end  int64
}

// parseWAL splits raw log bytes into records, applying the torn-tail rules
// from the package comment. valid is the byte length of the intact prefix;
// torn reports whether trailing bytes were dropped as a torn write.
func parseWAL(data []byte) (recs []walRecord, valid int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		rem := len(data) - off
		bad := ""
		switch n, inv := headerAt(data, off); {
		case rem < walHeaderLen:
			bad = "partial header"
		case inv != ^n:
			bad = "inconsistent record header"
		case n < 1 || n > maxWALRecord:
			bad = fmt.Sprintf("impossible record length %d", n)
		case rem < walHeaderLen+int(n):
			bad = "partial body"
		case crc32.Checksum(data[off+walHeaderLen:off+walHeaderLen+int(n)], crcC) != binary.BigEndian.Uint32(data[off+8:]):
			bad = "record CRC mismatch"
		default:
			body := data[off+walHeaderLen : off+walHeaderLen+int(n)]
			off += walHeaderLen + int(n)
			recs = append(recs, walRecord{typ: body[0], data: body[1:], end: int64(off)})
			continue
		}
		// Damage. A torn final write (process or OS crash) leaves nothing
		// readable behind it; damage with an intact record after it is
		// mid-log corruption and acknowledged data would be lost silently
		// by truncating here.
		if nextValidRecord(data, off+1) {
			return nil, 0, false, fmt.Errorf("%w: %s at offset %d with intact records after it", ErrWALCorrupt, bad, off)
		}
		return recs, int64(off), true, nil
	}
	return recs, int64(off), false, nil
}

// headerAt reads a record header's length fields (zero when fewer than 8
// bytes remain — the caller's bounds checks fire first).
func headerAt(data []byte, off int) (n, inv uint32) {
	if len(data)-off < 8 {
		return 0, 0
	}
	return binary.BigEndian.Uint32(data[off:]), binary.BigEndian.Uint32(data[off+4:])
}

// nextValidRecord reports whether any offset at or after from starts a
// structurally valid record (consistent header, plausible length, matching
// body CRC). The header probe is 8 bytes and self-checking, so the CRC —
// the expensive part — runs only on the ~2^-32 of offsets that pass it.
func nextValidRecord(data []byte, from int) bool {
	for off := from; off+walHeaderLen < len(data); off++ {
		n, inv := headerAt(data, off)
		if inv != ^n || n < 1 || n > maxWALRecord {
			continue
		}
		if len(data)-off < walHeaderLen+int(n) {
			continue
		}
		if crc32.Checksum(data[off+walHeaderLen:off+walHeaderLen+int(n)], crcC) == binary.BigEndian.Uint32(data[off+8:]) {
			return true
		}
	}
	return false
}

// batchRecord is a decoded 'B' record.
type batchRecord struct {
	meterID uint64
	epoch   uint32
	level   int
	count   int
	pts     []symbolic.SymbolPoint // nil until decodeBatch unpacks them
}

// batchHeaderLen is a 'B' payload's fixed header: meterID, epoch, level,
// kind and count.
const batchHeaderLen = 18

// decodeBatchHeader validates a 'B' record payload — level, timestamp kind,
// and a length that is exactly the timestamps and packed symbols the header
// announces — without unpacking a symbol. It is all replay needs for a batch
// the segments already cover. Every field is checked: the payload is disk
// input.
func decodeBatchHeader(data []byte) (batchRecord, error) {
	var br batchRecord
	if len(data) < batchHeaderLen {
		return br, fmt.Errorf("%w: batch record of %d bytes", ErrWALCorrupt, len(data))
	}
	br.meterID = binary.BigEndian.Uint64(data[0:])
	br.epoch = binary.BigEndian.Uint32(data[8:])
	br.level = int(data[12])
	kind := data[13]
	br.count = int(binary.BigEndian.Uint32(data[14:]))
	if br.level < 1 || br.level > symbolic.MaxLevel {
		return br, fmt.Errorf("%w: batch at level %d", ErrWALCorrupt, br.level)
	}
	if kind > 1 {
		return br, fmt.Errorf("%w: batch timestamp kind %d", ErrWALCorrupt, kind)
	}
	rest := len(data) - batchHeaderLen
	if want := batchTimestampBytes(kind, br.count) + (br.count*br.level+7)/8; br.count < 1 || rest != want {
		return br, fmt.Errorf("%w: batch of %d points with %d trailing bytes, want %d", ErrWALCorrupt, br.count, rest, want)
	}
	return br, nil
}

// batchTimestampBytes is the timestamp section's size: firstT and stride for
// an arithmetic batch (kind 0), one int64 per point for an explicit one.
func batchTimestampBytes(kind byte, count int) int {
	if kind == 1 {
		return 8 * count
	}
	return 16
}

// decodeBatch parses and unpacks a 'B' record payload, reusing the caller's
// point and symbol scratch.
func decodeBatch(data []byte, ptsScratch []symbolic.SymbolPoint, symScratch []symbolic.Symbol) (batchRecord, []symbolic.SymbolPoint, []symbolic.Symbol, error) {
	br, err := decodeBatchHeader(data)
	if err != nil {
		return br, ptsScratch, symScratch, err
	}
	kind, count := data[13], br.count
	rest := data[batchHeaderLen:]
	tsBytes := batchTimestampBytes(kind, count)
	symScratch = symbolic.AppendUnpackRange(symScratch[:0], rest[tsBytes:], br.level, 0, count)
	if cap(ptsScratch) < count {
		ptsScratch = make([]symbolic.SymbolPoint, count)
	}
	pts := ptsScratch[:count]
	if kind == 0 {
		firstT := int64(binary.BigEndian.Uint64(rest[0:]))
		stride := int64(binary.BigEndian.Uint64(rest[8:]))
		for i := range pts {
			pts[i] = symbolic.SymbolPoint{T: firstT + int64(i)*stride, S: symScratch[i]}
		}
	} else {
		for i := range pts {
			pts[i] = symbolic.SymbolPoint{T: int64(binary.BigEndian.Uint64(rest[8*i:])), S: symScratch[i]}
		}
	}
	br.pts = pts
	return br, ptsScratch, symScratch, nil
}

// stripSeq normalizes a possibly-sequenced record to its legacy type and
// body, returning the sequence number (0 for legacy records) — replay
// handles 't'/'b' exactly like 'T'/'B' plus a high-water-mark update.
func stripSeq(rec walRecord) (typ byte, seq uint64, data []byte, err error) {
	switch rec.typ {
	case recSeqTable, recSeqBatch:
		if len(rec.data) < 8 {
			return 0, 0, nil, fmt.Errorf("%w: sequenced record of %d bytes", ErrWALCorrupt, len(rec.data))
		}
		return rec.typ - ('a' - 'A'), binary.BigEndian.Uint64(rec.data), rec.data[8:], nil
	}
	return rec.typ, 0, rec.data, nil
}

// decodeTable parses a 'T' record payload.
func decodeTable(data []byte) (uint64, *symbolic.Table, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("%w: table record of %d bytes", ErrWALCorrupt, len(data))
	}
	t, err := symbolic.UnmarshalTable(data[8:])
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
	}
	return binary.BigEndian.Uint64(data[0:]), t, nil
}

// checkpoint is one meter's 'C' record: its state as of a log rotation.
type checkpoint struct {
	meterID uint64
	seq     uint64
	// covered is how many of the meter's first points the manifest's
	// segments held when the checkpoint was taken; blocks continue after
	// them.
	covered int64
	tables  []*symbolic.Table
	blocks  []ckptBlock
}

// ckptBlock is one block after a checkpoint's covered points.
type ckptBlock struct {
	epoch  int
	level  int
	n      int
	firstT int64
	stride int64
	packed []byte // n symbols at level bits, MSB-first
}

// ckptBlockHeaderLen is a checkpoint block's fixed header: epoch, level, n,
// firstT and stride.
const ckptBlockHeaderLen = 4 + 1 + 4 + 8 + 8

// appendCheckpoint appends ck as one framed 'C' record to dst. A record
// past maxWALRecord — a meter with megabytes of unsegmented blocks — is
// refused: replay would read it as damage.
func appendCheckpoint(dst []byte, ck *checkpoint) ([]byte, error) {
	start := len(dst)
	dst = append(dst, walHdrZero[:]...)
	dst = append(dst, recCheckpoint)
	dst = binary.BigEndian.AppendUint64(dst, ck.meterID)
	dst = binary.BigEndian.AppendUint64(dst, ck.seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(ck.covered))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ck.tables)))
	for _, t := range ck.tables {
		tb := symbolic.MarshalTable(t)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(tb)))
		dst = append(dst, tb...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ck.blocks)))
	for _, b := range ck.blocks {
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.epoch))
		dst = append(dst, byte(b.level))
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.n))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.firstT))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.stride))
		dst = append(dst, b.packed[:(b.n*b.level+7)/8]...)
	}
	if body := len(dst) - start - walHeaderLen; body > maxWALRecord {
		return dst[:start], fmt.Errorf("storage: meter %d checkpoint of %d bytes exceeds the %d-byte record limit", ck.meterID, body, maxWALRecord)
	}
	frameRecordAt(dst[start:])
	return dst, nil
}

// decodeCheckpoint parses a 'C' record payload. Every count is checked
// against the bytes that remain before anything is sized by it, and every
// block against the table history it claims: the payload is disk input.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: checkpoint: %s", ErrWALCorrupt, fmt.Sprintf(format, args...))
	}
	if len(data) < 8+8+8+4 {
		return nil, bad("record of %d bytes", len(data))
	}
	ck := &checkpoint{
		meterID: binary.BigEndian.Uint64(data[0:]),
		seq:     binary.BigEndian.Uint64(data[8:]),
		covered: int64(binary.BigEndian.Uint64(data[16:])),
	}
	if ck.covered < 0 {
		return nil, bad("meter %d covers %d points", ck.meterID, ck.covered)
	}
	off := 24
	nt := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if nt < 1 || nt > (len(data)-off)/4 {
		return nil, bad("meter %d claims %d tables", ck.meterID, nt)
	}
	ck.tables = make([]*symbolic.Table, 0, nt)
	for range nt {
		if len(data)-off < 4 {
			return nil, bad("meter %d table list truncated", ck.meterID)
		}
		l := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if l > len(data)-off {
			return nil, bad("meter %d table of %d bytes past the record end", ck.meterID, l)
		}
		t, err := symbolic.UnmarshalTable(data[off : off+l])
		if err != nil {
			return nil, bad("meter %d: %v", ck.meterID, err)
		}
		ck.tables = append(ck.tables, t)
		off += l
	}
	if len(data)-off < 4 {
		return nil, bad("meter %d block count truncated", ck.meterID)
	}
	nb := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if nb > (len(data)-off)/ckptBlockHeaderLen {
		return nil, bad("meter %d claims %d blocks", ck.meterID, nb)
	}
	ck.blocks = make([]ckptBlock, 0, nb)
	for range nb {
		if len(data)-off < ckptBlockHeaderLen {
			return nil, bad("meter %d block header truncated", ck.meterID)
		}
		b := ckptBlock{
			epoch:  int(binary.BigEndian.Uint32(data[off:])),
			level:  int(data[off+4]),
			n:      int(binary.BigEndian.Uint32(data[off+5:])),
			firstT: int64(binary.BigEndian.Uint64(data[off+9:])),
			stride: int64(binary.BigEndian.Uint64(data[off+17:])),
		}
		off += ckptBlockHeaderLen
		if b.epoch >= nt || b.level != ck.tables[b.epoch].Level() {
			return nil, bad("meter %d block at epoch %d level %d against %d tables", ck.meterID, b.epoch, b.level, nt)
		}
		if last := len(ck.blocks) - 1; last >= 0 && b.epoch < ck.blocks[last].epoch {
			return nil, bad("meter %d block epochs go back from %d to %d", ck.meterID, ck.blocks[last].epoch, b.epoch)
		}
		if b.n < 1 || b.n > server.BlockCap {
			return nil, bad("meter %d block of %d points", ck.meterID, b.n)
		}
		used := (b.n*b.level + 7) / 8
		if used > len(data)-off {
			return nil, bad("meter %d block payload past the record end", ck.meterID)
		}
		b.packed = data[off : off+used]
		off += used
		ck.blocks = append(ck.blocks, b)
	}
	if off != len(data) {
		return nil, bad("meter %d: %d trailing bytes", ck.meterID, len(data)-off)
	}
	return ck, nil
}

// points unpacks the block into the caller's point and symbol scratch.
func (b *ckptBlock) points(ptsScratch []symbolic.SymbolPoint, symScratch []symbolic.Symbol) ([]symbolic.SymbolPoint, []symbolic.Symbol) {
	symScratch = symbolic.AppendUnpackRange(symScratch[:0], b.packed, b.level, 0, b.n)
	ptsScratch = ptsScratch[:0]
	for i, s := range symScratch {
		ptsScratch = append(ptsScratch, symbolic.SymbolPoint{T: b.firstT + int64(i)*b.stride, S: s})
	}
	return ptsScratch, symScratch
}
