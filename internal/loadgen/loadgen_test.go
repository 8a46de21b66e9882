package loadgen

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"symmeter/internal/server"
	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
	"symmeter/pkg/client"
)

// startService listens on an ephemeral port and cleans up with the test.
func startService(t *testing.T, shards int) (*server.Service, string) {
	t.Helper()
	svc := server.New(server.Config{Shards: shards})
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, addr.String()
}

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

// TestFleet64ConcurrentMeters drives 64 simultaneous sessions over real TCP
// — the concurrency acceptance test; run under -race.
func TestFleet64ConcurrentMeters(t *testing.T) {
	const meters = 64
	svc, addr := startService(t, 8)
	rep, err := Run(addr, FleetConfig{
		Meters:        meters,
		Days:          1,
		SecondsPerDay: 600,
		Window:        60,
		Seed:          1,
		DisableGaps:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.AwaitSessions(meters, 10*time.Second)
	svc.Drain()
	rep.Evaluate(svc.Store())

	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}
	if got := len(svc.Store().Meters()); got != meters {
		t.Fatalf("store meters = %d, want %d", got, meters)
	}
	wantSymbols := 600 / 60 // gap-free prefix → one symbol per full window
	for _, m := range rep.Meters {
		if m.Err != nil {
			t.Fatalf("meter %d: %v", m.MeterID, m.Err)
		}
		if m.Sent != 600 {
			t.Fatalf("meter %d sent %d, want 600", m.MeterID, m.Sent)
		}
		if m.Symbols != wantSymbols {
			t.Fatalf("meter %d symbols = %d, want %d", m.MeterID, m.Symbols, wantSymbols)
		}
		if m.Matched != m.Symbols {
			t.Fatalf("meter %d matched %d of %d symbols against truth", m.MeterID, m.Matched, m.Symbols)
		}
		if m.MAE < 0 {
			t.Fatalf("meter %d MAE = %v", m.MeterID, m.MAE)
		}
	}
	st := svc.Stats()
	if st.Symbols != int64(meters*wantSymbols) {
		t.Fatalf("service symbols = %d, want %d", st.Symbols, meters*wantSymbols)
	}
	if st.Sessions != meters || st.Active != 0 {
		t.Fatalf("sessions = %d active = %d", st.Sessions, st.Active)
	}
	if st.BytesIn == 0 {
		t.Fatal("no bytes counted on the wire")
	}
}

// TestFleetRelearnMidStream exercises concurrent mid-stream table updates
// ('U' frames between symbol batches) across overlapping sessions.
func TestFleetRelearnMidStream(t *testing.T) {
	svc, addr := startService(t, 4)
	rep, err := Run(addr, FleetConfig{
		Meters:        8,
		Days:          3,
		SecondsPerDay: 600,
		Window:        60,
		Seed:          3,
		RelearnPerDay: true,
		DisableGaps:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.AwaitSessions(8, 10*time.Second)
	svc.Drain()
	rep.Evaluate(svc.Store())
	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}
	for _, m := range rep.Meters {
		if m.Err != nil {
			t.Fatalf("meter %d: %v", m.MeterID, m.Err)
		}
		st, ok := svc.Store().Snapshot(m.MeterID)
		if !ok {
			t.Fatalf("meter %d missing from store", m.MeterID)
		}
		if len(st.Tables) != 3 { // initial + one relearn per non-final day
			t.Fatalf("meter %d tables = %d, want 3", m.MeterID, len(st.Tables))
		}
		if m.Matched != m.Symbols {
			t.Fatalf("meter %d matched %d of %d", m.MeterID, m.Matched, m.Symbols)
		}
	}
}

// streamSensor opens a session for meter, runs fn against a sensor encoding
// with table at the given window, drains it and waits for the server to
// finish the session.
func streamSensor(t *testing.T, meter uint64, table *symbolic.Table, window int64, fn func(*sensor)) *server.Store {
	t.Helper()
	svc, addr := startService(t, 2)
	sess, err := client.DialSession(addr, meter, client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSensor(sess, table, window)
	if err != nil {
		t.Fatal(err)
	}
	fn(s)
	if err := s.drain(); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if !svc.AwaitSessions(1, 10*time.Second) {
		t.Fatal("session never completed")
	}
	if errs := svc.SessionErrors(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}
	return svc.Store()
}

// TestGapStartsNewBatch: a data gap ends the pending batch, so the symbols
// on both sides of it keep their exact timestamps.
func TestGapStartsNewBatch(t *testing.T) {
	store := streamSensor(t, 1, testTable(t), 10, func(s *sensor) {
		// Two windows, a 50-second hole, two more windows.
		for _, ts := range []int64{0, 5, 10, 15, 70, 75, 80, 85} {
			if err := s.push(timeseries.Point{T: ts, V: 500}); err != nil {
				t.Fatal(err)
			}
		}
	})
	st, _ := store.Snapshot(1)
	// Windows: [0,10) [10,20) [70,80) [80,90) → T = 10,20,80,90.
	wantT := []int64{10, 20, 80, 90}
	if len(st.Points) != len(wantT) {
		t.Fatalf("points = %d, want %d", len(st.Points), len(wantT))
	}
	for i, w := range wantT {
		if st.Points[i].T != w {
			t.Fatalf("T[%d] = %d, want %d", i, st.Points[i].T, w)
		}
	}
}

// TestTableUpdateMidStream: symbols sent before a table update decode
// against the old table, symbols after it against the new one.
func TestTableUpdateMidStream(t *testing.T) {
	store := streamSensor(t, 2, testTable(t), 10, func(s *sensor) {
		for i := int64(0); i < 100; i++ {
			if err := s.push(timeseries.Point{T: i, V: 100}); err != nil {
				t.Fatal(err)
			}
		}
		// New table with a different range (drifted data).
		vals := make([]float64, 128)
		for i := range vals {
			vals[i] = 4000 + float64(i)*10
		}
		table2, err := symbolic.Learn(symbolic.MethodMedian, vals, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.updateTable(table2); err != nil {
			t.Fatal(err)
		}
		for i := int64(100); i < 200; i++ {
			if err := s.push(timeseries.Point{T: i, V: 4500}); err != nil {
				t.Fatal(err)
			}
		}
	})
	st, _ := store.Snapshot(2)
	if len(st.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(st.Tables))
	}
	if len(st.Points) != 20 {
		t.Fatalf("points = %d, want 20", len(st.Points))
	}
	// Early points decode near 100, late points near 4500: the server must
	// apply the right table per segment.
	early, late := st.Points[0].V, st.Points[len(st.Points)-1].V
	if math.Abs(early-100) > 100 {
		t.Fatalf("early reconstruction = %v, want ~100", early)
	}
	if math.Abs(late-4500) > 300 {
		t.Fatalf("late reconstruction = %v, want ~4500", late)
	}
}
