// Package loadgen drives a simulated smart-meter fleet against an
// aggregation server over real TCP. Each meter learns its lookup table from
// two days of synthetic history, then streams its live days as symbols
// through its own exactly-once client.Session — table first, symbol
// batches after, a fresh table whenever it relearns (the paper's §2
// protocol) — while recording the true window averages, so Evaluate can
// score the server's reconstruction.
package loadgen

import (
	"fmt"
	"math"
	"sync"

	"symmeter/internal/dataset"
	"symmeter/internal/server"
	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
	"symmeter/pkg/client"
)

const (
	// batchSize is the most symbols one 'D' frame carries: a day of
	// 15-minute windows.
	batchSize = 96
	// trainDays of history each meter learns its first table from, the
	// paper's bootstrap.
	trainDays = 2
)

// FleetConfig describes a simulated meter fleet.
type FleetConfig struct {
	// Meters is the number of concurrent sensors (required, ≥ 1).
	Meters int
	// Days of live data each meter streams after its training days.
	Days int
	// SecondsPerDay caps how much of each day is used, both for training
	// and streaming (0 = the whole 86400-second day). Benchmarks use this
	// to trade realism for wall-clock.
	SecondsPerDay int64
	// Window is the vertical segmentation window in seconds (default 900).
	Window int64
	// K is the alphabet size (default 16).
	K int
	// Seed offsets each meter's synthetic generator; meter i uses Seed+i.
	Seed int64
	// RelearnPerDay rebuilds the table from each finished day and resends
	// it mid-stream (the §2.2 adaptive path) — exercises table updates
	// under concurrent load.
	RelearnPerDay bool
	// DisableGaps turns off the generator's missing-data simulation.
	DisableGaps bool
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Window <= 0 {
		c.Window = 900
	}
	if c.K <= 0 {
		c.K = 16
	}
	return c
}

// ExpectedPointsPerMeter returns an upper bound on the symbols one meter
// will stream under this config (after defaulting) — the right value for
// server.Config.ReservePoints so every store commit lands in pre-allocated
// capacity. Per day: one symbol per touched window (ceiling, plus one for
// window/day misalignment) and one more for the partial-window flush a
// daily table relearn forces. Gaps can only reduce the actual count.
func (c FleetConfig) ExpectedPointsPerMeter() int {
	c = c.withDefaults()
	perDay := int64(timeseries.SecondsPerDay)
	if c.SecondsPerDay > 0 {
		perDay = c.SecondsPerDay
	}
	symbolsPerDay := (perDay+c.Window-1)/c.Window + 2
	return int(symbolsPerDay * int64(c.Days))
}

// MeterReport is one meter's end-to-end outcome.
type MeterReport struct {
	MeterID uint64
	// Sent is the raw measurements pushed into the sensor.
	Sent int
	// Symbols is how many reconstructed points the server stored (filled
	// by Evaluate).
	Symbols int
	// Matched is how many of those aligned with a ground-truth window
	// (filled by Evaluate).
	Matched int
	// MAE is the mean absolute error in watts between the server's
	// reconstruction and the true window averages (filled by Evaluate).
	MAE float64
	// Err is the sensor-side failure, nil on success.
	Err error
	// Connected reports whether the meter's session handshake succeeded —
	// even a meter that later failed mid-stream produced a server-side
	// session, so callers waiting for sessions (Service.AwaitSessions) must
	// count connected meters, not successful ones.
	Connected bool

	truth []timeseries.Point
}

// FleetReport aggregates a fleet run.
type FleetReport struct {
	Meters []MeterReport
	// Sent is total raw measurements across the fleet.
	Sent int
}

// Run dials addr once per meter and streams each meter's data over its own
// session, all concurrently. It returns when every session has closed; let
// the service drain before evaluating.
func Run(addr string, cfg FleetConfig) (*FleetReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Meters < 1 {
		return nil, fmt.Errorf("loadgen: fleet needs at least one meter, got %d", cfg.Meters)
	}
	rep := &FleetReport{Meters: make([]MeterReport, cfg.Meters)}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Meters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep.Meters[i] = runMeter(addr, uint64(i+1), int64(i), cfg)
		}(i)
	}
	wg.Wait()
	for i := range rep.Meters {
		rep.Sent += rep.Meters[i].Sent
	}
	return rep, nil
}

// dayPoints returns day d of the meter's series, capped to the configured
// seconds-per-day prefix.
func dayPoints(gen *dataset.Generator, d int, cap int64) []timeseries.Point {
	day := gen.HouseDay(0, d)
	pts := day.Points
	if cap <= 0 {
		return pts
	}
	limit := day.Start() + cap
	for i, p := range pts {
		if p.T >= limit {
			return pts[:i]
		}
	}
	return pts
}

func runMeter(addr string, id uint64, seedOff int64, cfg FleetConfig) MeterReport {
	rep := MeterReport{MeterID: id}
	fail := func(err error) MeterReport { rep.Err = err; return rep }

	gen := dataset.New(dataset.Config{
		Seed:        cfg.Seed + seedOff,
		Houses:      1,
		Days:        trainDays + cfg.Days,
		DisableGaps: cfg.DisableGaps,
	})

	var builder symbolic.TableBuilder
	for d := 0; d < trainDays; d++ {
		for _, p := range dayPoints(gen, d, cfg.SecondsPerDay) {
			builder.Push(p.V)
		}
	}
	table, err := builder.Build(symbolic.MethodMedian, cfg.K)
	if err != nil {
		return fail(err)
	}

	sess, err := client.DialSession(addr, id, client.SessionConfig{})
	if err != nil {
		return fail(err)
	}
	rep.Connected = true
	defer sess.Close()
	sensor, err := newSensor(sess, table, cfg.Window)
	if err != nil {
		return fail(err)
	}

	truth := newTruthTracker(table, cfg.Window)
	for d := trainDays; d < trainDays+cfg.Days; d++ {
		pts := dayPoints(gen, d, cfg.SecondsPerDay)
		var dayVals []float64
		for _, p := range pts {
			if err := sensor.push(p); err != nil {
				return fail(err)
			}
			if err := truth.push(p); err != nil {
				return fail(err)
			}
			rep.Sent++
			if cfg.RelearnPerDay {
				dayVals = append(dayVals, p.V)
			}
		}
		if cfg.RelearnPerDay && d < trainDays+cfg.Days-1 && len(dayVals) > 0 {
			next, err := symbolic.Learn(symbolic.MethodMedian, dayVals, cfg.K)
			if err != nil {
				return fail(err)
			}
			// updateTable flushes the encoder's partial window; mirror that
			// in the ground truth so timestamps keep matching.
			truth.flush()
			if err := sensor.updateTable(next); err != nil {
				return fail(err)
			}
		}
	}
	if err := sensor.drain(); err != nil {
		return fail(err)
	}
	truth.flush()
	rep.truth = truth.out
	return rep
}

// Evaluate fills each MeterReport's server-side fields from the store:
// symbol counts and the reconstruction MAE against the meter's true window
// averages, matched by timestamp.
func (r *FleetReport) Evaluate(store *server.Store) {
	for i := range r.Meters {
		m := &r.Meters[i]
		st, ok := store.Snapshot(m.MeterID)
		if !ok {
			continue
		}
		m.Symbols = len(st.Points)
		var sum float64
		j := 0
		for _, tp := range m.truth {
			for j < len(st.Points) && st.Points[j].T < tp.T {
				j++
			}
			if j < len(st.Points) && st.Points[j].T == tp.T {
				sum += math.Abs(tp.V - st.Points[j].V)
				m.Matched++
				j++
			}
		}
		if m.Matched > 0 {
			m.MAE = sum / float64(m.Matched)
		}
	}
}

// truthTracker records per-window true averages by driving a parallel
// symbolic.Encoder, so fleet ground truth inherits the sensor's window
// alignment (and its out-of-order rejection) by construction instead of
// re-implementing it.
type truthTracker struct {
	enc *symbolic.Encoder
	out []timeseries.Point
}

func newTruthTracker(table *symbolic.Table, window int64) *truthTracker {
	return &truthTracker{enc: symbolic.NewEncoder(table, window)}
}

func (tt *truthTracker) push(p timeseries.Point) error {
	sp, avg, ok, err := tt.enc.PushWithValue(p)
	if err != nil {
		return err
	}
	if ok {
		tt.out = append(tt.out, timeseries.Point{T: sp.T, V: avg})
	}
	return nil
}

func (tt *truthTracker) flush() {
	if sp, avg, ok := tt.enc.FlushWithValue(); ok {
		tt.out = append(tt.out, timeseries.Point{T: sp.T, V: avg})
	}
}
