package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"symmeter/internal/dataset"
	"symmeter/internal/symbolic"
	"symmeter/pkg/client"
)

// The paper's deployment: 15-minute windows symbolized with a learned k=16
// lookup table, so one meter-day is 96 four-bit symbols.
const (
	window        = 900
	slotsPerDay   = 96
	alphabet      = 16
	secondsPerDay = 86400
	// epoch is the first timestamp of every meter's day 0 (a UTC midnight).
	epoch int64 = 1_699_920_000
)

// sizes fixes how much data each workload moves. The benchmark runs
// fullSizes; the tests run tinySizes so every workload finishes in seconds.
type sizes struct {
	meters     int // fleet of the ingest and query workloads
	days       int // days per meter-year (ingest) and preloaded days (query)
	mixMeters  int // fleet of the mixed workload
	mixHistory int // days each mixed meter holds before the timed phase
	houses     int // houses the day pool is generated from
	poolDays   int // generated days per house; the first two train its table
	burst      int // mixed: meter queries per tick (plus one fleet query)
	tick       time.Duration
	fleetDays  int           // length of a fleet query window in the query workload
	gateSample int           // queries the gate compares wire vs in-process
	setups     int           // set-ups per run; setup_s is their median
	restarts   int           // node restarts after the timed phase; recover_s is their median
	readBack   time.Duration // ingest: queries on each round's recovered node
}

var fullSizes = sizes{
	meters: 512, days: 365, mixMeters: 128, mixHistory: 90,
	houses: 8, poolDays: 8, burst: 7, tick: 10 * time.Millisecond,
	fleetDays: 30, gateSample: 4000, setups: 3, restarts: 5, readBack: 3 * time.Second,
}

var tinySizes = sizes{
	meters: 8, days: 40, mixMeters: 4, mixHistory: 5,
	houses: 2, poolDays: 3, burst: 3, tick: 10 * time.Millisecond,
	fleetDays: 3, gateSample: 200, setups: 2, restarts: 2, readBack: 50 * time.Millisecond,
}

// counts is a symbol histogram at the fleet's single level.
type counts [alphabet]uint64

func (c *counts) add(o *counts) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c *counts) total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// poolDay is one encoded house-day with per-slot cumulative symbol counts,
// so the reference can count any slot range in O(alphabet).
type poolDay struct {
	syms   []symbolic.Symbol
	prefix [slotsPerDay + 1][alphabet]uint32
}

func (p *poolDay) addSlots(c *counts, s0, s1 int) {
	for i := range c {
		c[i] += uint64(p.prefix[s1][i] - p.prefix[s0][i])
	}
}

// fleet is the generated input: per-house tables and day pools, and the
// seeded rule that assigns every meter-day a pool day. The service only
// ever sees the symbols; the fleet is also the reference model the
// correctness gate checks every answer against.
type fleet struct {
	seed   int64
	houses int
	tables []*symbolic.Table
	pool   [][]poolDay

	// learn and encode are the set-up time spent in symbolic.Learn and
	// Table.EncodeAll; encoded counts the points EncodeAll symbolized.
	learn, encode time.Duration
	encoded       int

	// byDay[h][d] is the symbol histogram of day d summed over every meter
	// of house h that holds day d (see index).
	byDay [][]counts
}

// newFleet generates houses×poolDays days with internal/dataset, learns
// each house's table from its first two days with the paper's
// distinct-median method, and encodes every day at 900 s windows.
func newFleet(seed int64, sz sizes) (*fleet, error) {
	gen := dataset.New(dataset.Config{Houses: sz.houses, Days: sz.poolDays, Seed: seed, DisableGaps: true})
	f := &fleet{seed: seed, houses: sz.houses}
	for h := 0; h < sz.houses; h++ {
		var train []float64
		var avgs [][]float64
		for d := 0; d < sz.poolDays; d++ {
			day := gen.HouseDay(h, d)
			if d < 2 {
				for _, p := range day.Points {
					train = append(train, p.V)
				}
			}
			rs := day.Resample(window)
			if len(rs.Points) != slotsPerDay {
				return nil, fmt.Errorf("house %d day %d: %d windows, want %d", h, d, len(rs.Points), slotsPerDay)
			}
			vs := make([]float64, slotsPerDay)
			for i, p := range rs.Points {
				vs[i] = p.V
			}
			avgs = append(avgs, vs)
		}
		start := time.Now()
		t, err := symbolic.Learn(symbolic.MethodDistinctMedian, train, alphabet)
		f.learn += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("house %d: %w", h, err)
		}
		days := make([]poolDay, len(avgs))
		for d, vs := range avgs {
			start := time.Now()
			days[d].syms = t.EncodeAll(vs)
			f.encode += time.Since(start)
			f.encoded += len(vs)
			for i, s := range days[d].syms {
				days[d].prefix[i+1] = days[d].prefix[i]
				days[d].prefix[i+1][s.Index()]++
			}
		}
		f.tables = append(f.tables, t)
		f.pool = append(f.pool, days)
	}
	return f, nil
}

func (f *fleet) house(m int) int { return m % f.houses }

// meterID maps meter index m to its wire id (ids start at 1).
func meterID(m int) uint64 { return uint64(m) + 1 }

// day returns the pool day meter m sends as its day d.
func (f *fleet) day(m, d int) *poolDay {
	h := f.house(m)
	z := uint64(f.seed) ^ uint64(m)*0x9E3779B97F4A7C15 ^ uint64(d)*0xC2B2AE3D27D4EB4F
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return &f.pool[h][z%uint64(len(f.pool[h]))]
}

// dayStart is the timestamp of the first window of day d.
func dayStart(d int) int64 { return epoch + int64(d)*secondsPerDay }

// pointIndex is the index of the first point at or after t (points sit at
// epoch + i*window).
func pointIndex(t int64) int64 {
	if t <= epoch {
		return 0
	}
	return (t - epoch + window - 1) / window
}

// addMeter adds meter m's symbol counts over [t0, t1) to c, for a meter
// holding days [0, held).
func (f *fleet) addMeter(c *counts, m, held int, t0, t1 int64) {
	i0, i1 := pointIndex(t0), pointIndex(t1)
	if end := int64(held) * slotsPerDay; i1 > end {
		i1 = end
	}
	for i := i0; i < i1; {
		d := int(i / slotsPerDay)
		s0 := int(i % slotsPerDay)
		s1 := slotsPerDay
		if rest := i1 - int64(d)*slotsPerDay; rest < slotsPerDay {
			s1 = int(rest)
		}
		f.day(m, d).addSlots(c, s0, s1)
		i = int64(d+1) * slotsPerDay
	}
}

// index builds byDay for meters holding held[m] days each.
func (f *fleet) index(held []int) {
	maxDays := 0
	for _, n := range held {
		maxDays = max(maxDays, n)
	}
	f.byDay = make([][]counts, f.houses)
	for h := range f.byDay {
		f.byDay[h] = make([]counts, maxDays)
	}
	for m, n := range held {
		row := f.byDay[f.house(m)]
		for d := 0; d < n; d++ {
			f.day(m, d).addSlots(&row[d], 0, slotsPerDay)
		}
	}
}

// fleetCounts returns per-house symbol counts over whole days [d0, d1);
// fleet windows always span whole days.
func (f *fleet) fleetCounts(d0, d1 int) []counts {
	out := make([]counts, f.houses)
	for h := range out {
		row := f.byDay[h]
		for d := d0; d < d1 && d < len(row); d++ {
			out[h].add(&row[d])
		}
	}
	return out
}

// refAgg folds per-table counts into the aggregate the engine should
// report: Count, Min and Max exactly, Sum up to summation order.
func refAgg(tables []*symbolic.Table, cs []counts) client.Agg {
	a := client.Agg{Min: math.Inf(1), Max: math.Inf(-1)}
	for h := range cs {
		vals := tables[h].ReconstructionValues()
		for i, n := range cs[h] {
			if n == 0 {
				continue
			}
			a.Count += n
			a.Sum += float64(n) * vals[i]
			a.Min = math.Min(a.Min, vals[i])
			a.Max = math.Max(a.Max, vals[i])
		}
	}
	return a
}

// sumTolerance is the relative error allowed between the engine's sum and
// the reference's: both add the same reconstruction values, in different
// orders.
const sumTolerance = 1e-9

func closeSum(got, want float64) bool {
	return math.Abs(got-want) <= sumTolerance*math.Max(1, math.Abs(want))
}

// op is one query the generator sends.
type op struct {
	fleet  bool
	hist   bool
	meter  int
	t0, t1 int64
}

func (o op) String() string {
	kind := "aggregate"
	if o.hist {
		kind = "histogram"
	}
	if o.fleet {
		return fmt.Sprintf("fleet %s [%d,%d)", kind, o.t0, o.t1)
	}
	return fmt.Sprintf("meter %d %s [%d,%d)", meterID(o.meter), kind, o.t0, o.t1)
}

// meterWindow draws a window of 1 h to maxLen seconds, at arbitrary second
// offsets so its edges cut the store's blocks, inside days [from, held) of
// a meter.
func meterWindow(rng *rand.Rand, from, held int, maxLen int64) (t0, t1 int64) {
	span := int64(held-from) * secondsPerDay
	if span <= 0 {
		return dayStart(from), dayStart(from) + 3600
	}
	maxLen = min(maxLen, span)
	l := int64(3600)
	if maxLen > l {
		l += rng.Int63n(maxLen - l + 1)
	}
	t0 = dayStart(from) + rng.Int63n(span-l+1)
	return t0, t0 + l
}

// queryMix draws the query workload's request: 90% single-meter windows of
// 1 h to 30 d, a quarter of them histograms; 10% fleet aggregates or
// histograms over fleetDays whole days. A window starts on a second of the
// lane's parity, so concurrent generators on different lanes never send
// the same request and the trace can tell their requests apart.
func queryMix(rng *rand.Rand, held []int, fleetDays, lane int) op {
	if rng.Intn(10) == 0 {
		maxDays := 0
		for _, n := range held {
			maxDays = max(maxDays, n)
		}
		n := min(fleetDays, maxDays)
		d0 := rng.Intn(maxDays - n + 1)
		// One second early still covers exactly the same points.
		return op{fleet: true, hist: rng.Intn(2) == 0, t0: dayStart(d0) - int64(lane), t1: dayStart(d0 + n)}
	}
	m := rng.Intn(len(held))
	t0, t1 := meterWindow(rng, 0, held[m], 30*secondsPerDay)
	shift := (t0 ^ int64(lane)) & 1
	return op{meter: m, hist: rng.Intn(4) == 0, t0: t0 - shift, t1: t1 - shift}
}

// answer is what one query returned.
type answer struct {
	agg  client.Agg
	hist client.Histogram
}

// run sends o through c.
func (o op) run(c *client.Client, a *answer) error {
	var err error
	switch {
	case o.fleet && o.hist:
		err = c.FleetHistogramInto(&a.hist, o.t0, o.t1)
	case o.fleet:
		a.agg, err = c.FleetAggregate(o.t0, o.t1)
	case o.hist:
		err = c.HistogramInto(&a.hist, meterID(o.meter), o.t0, o.t1)
	default:
		a.agg, err = c.Aggregate(meterID(o.meter), o.t0, o.t1)
	}
	return err
}

// check compares an answer with the reference: a meter query for a meter
// holding clip days, a fleet query against the byDay index.
func (f *fleet) check(o op, a *answer, clip int) error {
	var cs []counts
	if o.fleet {
		cs = f.fleetCounts(int(pointIndex(o.t0)/slotsPerDay), int(pointIndex(o.t1)/slotsPerDay))
	} else {
		cs = make([]counts, f.houses)
		f.addMeter(&cs[f.house(o.meter)], o.meter, clip, o.t0, o.t1)
	}
	if o.hist {
		var want counts
		for h := range cs {
			want.add(&cs[h])
		}
		if want.total() == 0 && len(a.hist.Counts) == 0 {
			return nil
		}
		if a.hist.Level != 4 || len(a.hist.Counts) != alphabet {
			return fmt.Errorf("%v: histogram level %d with %d bins", o, a.hist.Level, len(a.hist.Counts))
		}
		for i, n := range a.hist.Counts {
			if n != want[i] {
				return fmt.Errorf("%v: histogram %v, want %v", o, a.hist.Counts, want)
			}
		}
		return nil
	}
	want := refAgg(f.tables, cs)
	got := a.agg
	if got.Count != want.Count || !closeSum(got.Sum, want.Sum) ||
		(want.Count > 0 && (got.Min != want.Min || got.Max != want.Max)) {
		return fmt.Errorf("%v: got %+v, want %+v", o, got, want)
	}
	return nil
}
