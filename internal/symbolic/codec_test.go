package symbolic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	syms := []Symbol{
		NewSymbol(0, 4), NewSymbol(15, 4), NewSymbol(7, 4), NewSymbol(8, 4), NewSymbol(1, 4),
	}
	data, err := Pack(syms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatalf("round trip = %v, want %v", got, syms)
	}
}

func TestPackEmptyAndErrors(t *testing.T) {
	data, err := Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
	if _, err := Pack([]Symbol{NewSymbol(0, 2), NewSymbol(0, 3)}); err == nil {
		t.Fatal("mixed levels must error")
	}
	if _, err := Pack([]Symbol{{}}); err == nil {
		t.Fatal("level-0 symbols must error")
	}
}

func TestUnpackErrors(t *testing.T) {
	if _, err := Unpack([]byte{1, 2}); err == nil {
		t.Fatal("short data")
	}
	if _, err := Unpack([]byte{'X', 4, 0, 0, 1, 0}); err == nil {
		t.Fatal("bad magic")
	}
	if _, err := Unpack([]byte{'S', 0, 0, 0, 1, 0}); err == nil {
		t.Fatal("bad level")
	}
	if _, err := Unpack([]byte{'S', 31, 0, 0, 1, 0, 0, 0, 0}); err == nil {
		t.Fatal("level > MaxLevel")
	}
	if _, err := Unpack([]byte{'S', 8, 0, 0, 10, 1}); err == nil {
		t.Fatal("truncated payload")
	}
}

func TestPackedSizeArithmetic(t *testing.T) {
	// §2.3: 96 symbols (one day at 15 min) × 4 bits = 384 bits = 48 bytes.
	if got := PackedSize(96, 4); got != 5+48 {
		t.Fatalf("PackedSize(96,4) = %d, want 53", got)
	}
	if got := RawSize(86400); got != 691200 {
		t.Fatalf("RawSize(86400) = %d", got)
	}
}

func TestPackDensity(t *testing.T) {
	// 1000 level-4 symbols should take 5 + 500 bytes exactly.
	syms := make([]Symbol, 1000)
	for i := range syms {
		syms[i] = NewSymbol(i%16, 4)
	}
	data, err := Pack(syms)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 505 {
		t.Fatalf("packed size = %d, want 505", len(data))
	}
}

// Property: Pack/Unpack round-trips arbitrary fixed-level sequences.
func TestPackRoundTripProperty(t *testing.T) {
	f := func(seed int64, lvl uint8, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		level := int(lvl%10) + 1
		count := int(n % 2000)
		syms := make([]Symbol, count)
		for i := range syms {
			syms[i] = NewSymbol(rng.Intn(1<<uint(level)), level)
		}
		data, err := Pack(syms)
		if err != nil {
			return false
		}
		got, err := Unpack(data)
		if err != nil || len(got) != count {
			return false
		}
		for i := range got {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionPaperNumbers(t *testing.T) {
	// §2.3: 1 Hz doubles ≈ 680 kB/day; 16 symbols at 15 min = 384 bit;
	// "three orders of magnitude lower".
	st, err := Compression(1, 900, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.RawBytes != 691200 {
		t.Fatalf("RawBytes = %d", st.RawBytes)
	}
	if st.Symbols != 96 || st.SymbolBits != 384 {
		t.Fatalf("Symbols=%d SymbolBits=%d, want 96/384", st.Symbols, st.SymbolBits)
	}
	if st.Ratio < 1e3 || st.Ratio > 1e5 {
		t.Fatalf("Ratio = %v, want ~1.4e4 (three orders of magnitude)", st.Ratio)
	}
}

func TestCompressionErrors(t *testing.T) {
	if _, err := Compression(0, 900, 16); err == nil {
		t.Fatal("zero sample period")
	}
	if _, err := Compression(1, 0, 16); err == nil {
		t.Fatal("zero window")
	}
	if _, err := Compression(1, 900, 3); err == nil {
		t.Fatal("non-power-of-two k")
	}
}

func TestMarshalTableRoundTrip(t *testing.T) {
	vals := []float64{5, 100, 230, 1000, 2400, 7, 90}
	tab, err := Learn(MethodDistinctMedian, vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := MarshalTable(tab)
	got, err := UnmarshalTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != tab.K() || got.Method() != tab.Method() {
		t.Fatalf("k/method mismatch: %v vs %v", got, tab)
	}
	if !reflect.DeepEqual(got.Separators(), tab.Separators()) {
		t.Fatalf("separators: %v vs %v", got.Separators(), tab.Separators())
	}
	gmin, gmax := got.Range()
	tmin, tmax := tab.Range()
	if gmin != tmin || gmax != tmax {
		t.Fatal("range mismatch")
	}
	// Representatives survive, including NaN bins.
	for _, s := range []int{0, 1, 2, 3} {
		sym := NewSymbol(s, 2)
		a, _ := tab.Value(sym)
		b, _ := got.Value(sym)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("representative mismatch for %v: %v vs %v", sym, a, b)
		}
	}
}

func TestUnmarshalTableErrors(t *testing.T) {
	if _, err := UnmarshalTable(nil); err == nil {
		t.Fatal("nil data")
	}
	if _, err := UnmarshalTable([]byte{'X', 1, 0}); err == nil {
		t.Fatal("bad magic")
	}
	if _, err := UnmarshalTable([]byte{'T', 2, 0, 1, 2, 3}); err == nil {
		t.Fatal("truncated")
	}
}

func TestTableWireSizeMatchesMarshal(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, k := range []int{2, 4, 8, 16} {
		tab, err := Learn(MethodMedian, vals, k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(MarshalTable(tab)), TableWireSize(k); got != want {
			t.Fatalf("k=%d: frame %d bytes, TableWireSize says %d", k, got, want)
		}
	}
}

// FuzzUnmarshalTable feeds arbitrary bytes to the table decoder that both
// the wire decoder and WAL replay call. It must never panic, and a frame it
// accepts must re-marshal to exactly the bytes it came from.
func FuzzUnmarshalTable(f *testing.F) {
	// A level-64 table: the 11-byte payload of a 16-byte 'T' wire frame.
	// Unchecked, 1<<64 wraps the size arithmetic to match the frame and the
	// second float read runs off its end.
	level64 := []byte{'T', 64, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	f.Add(level64)
	f.Add(append([]byte{'T', 0, 0, 0, byte(len(level64))}, level64...)) // the whole frame
	f.Add([]byte{'T', 63, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{'T', 0, 0})
	tab, err := Learn(MethodDistinctMedian, []float64{5, 100, 230, 1000, 2400, 7, 90}, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(MarshalTable(tab))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalTable(data)
		if err != nil {
			return
		}
		if re := MarshalTable(got); string(re) != string(data) {
			t.Fatalf("accepted frame re-marshals differently:\n in  %x\n out %x", data, re)
		}
	})
}
