package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"symmeter/pkg/client"
)

// runTiny runs one workload at tinySizes and fails the test on any
// correctness-gate failure.
func runTiny(t *testing.T, w string, seed int64, tr *tracer) *phase {
	t.Helper()
	p, err := runPhase(w, seed, tinySizes, 200*time.Millisecond, tinySizes.setups, t.TempDir(), tr)
	if err != nil {
		t.Fatalf("%s: %v", w, err)
	}
	for _, f := range p.failures {
		t.Errorf("%s: %s", w, f)
	}
	if p.tried == 0 {
		t.Errorf("%s: no operations attempted", w)
	}
	return p
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			p := runTiny(t, w, 1, nil)
			for name, v := range endToEndValues(p) {
				if !(v.v > 0) || v.n == 0 {
					t.Errorf("%s = %v from %d samples, want a positive measurement", name, v.v, v.n)
				}
			}
		})
	}
}

func TestSecondSeedPassesGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) { runTiny(t, w, 2, nil) })
	}
}

func TestSpansAddUp(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			p := runTiny(t, w, 3, newTracer())
			j := join(p.timed.spans, p.layer)
			if j.violations != 0 || j.unjoined != 0 {
				t.Fatalf("%d layer spans outside their client span, %d client spans unjoined", j.violations, j.unjoined)
			}
			if w != "query" && len(j.ingest) != int(p.timed.batches) {
				t.Errorf("joined %d ingest batches, %d were acked", len(j.ingest), p.timed.batches)
			}
			if w != "ingest" && len(j.queries) != int(p.timed.queries) {
				t.Errorf("joined %d queries, %d were answered", len(j.queries), p.timed.queries)
			}
			for _, b := range append(j.ingest, j.queries...) {
				if b.remainder < 0 || b.layer+b.remainder != b.client {
					t.Fatalf("layer %d + remainder %d != client %d", b.layer, b.remainder, b.client)
				}
			}
		})
	}
}

func TestCheckCatchesWrongAnswers(t *testing.T) {
	f, err := newFleet(1, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	held := []int{4, 4, 4}
	f.index(held)
	ops := []op{
		{meter: 1, t0: dayStart(1) + 123, t1: dayStart(3) - 77},
		{meter: 2, hist: true, t0: dayStart(0), t1: dayStart(2) + 901},
		{fleet: true, t0: dayStart(1), t1: dayStart(3)},
		{fleet: true, hist: true, t0: dayStart(0), t1: dayStart(4)},
	}
	for _, o := range ops {
		var cs []counts
		if o.fleet {
			cs = f.fleetCounts(int(pointIndex(o.t0)/slotsPerDay), int(pointIndex(o.t1)/slotsPerDay))
		} else {
			cs = make([]counts, f.houses)
			f.addMeter(&cs[f.house(o.meter)], o.meter, held[o.meter], o.t0, o.t1)
		}
		var total counts
		for h := range cs {
			total.add(&cs[h])
		}
		a := answer{agg: refAgg(f.tables, cs), hist: client.Histogram{Level: 4, Counts: total[:]}}
		if err := f.check(o, &a, held[o.meter]); err != nil {
			t.Fatalf("reference answer rejected: %v", err)
		}
		if o.hist {
			a.hist.Counts[3]++
		} else {
			a.agg.Sum *= 1 + 1e-6
		}
		if f.check(o, &a, held[o.meter]) == nil {
			t.Errorf("%v: wrong answer accepted", o)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %q, benchmark runs %v", w.Name, workloads)
		}
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	compare := func(kind string, declared []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(defs))
		}
		byName := make(map[string]metricDef)
		for _, d := range declared {
			byName[d.Name] = metricDef{d.Name, d.Unit, d.Better}
		}
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s: metric name %q", kind, d.name)
			}
			if got, ok := byName[d.name]; !ok || got != d {
				t.Errorf("%s: benchmark reports %+v, BENCHMARK.json declares %+v", kind, d, got)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	defs := make([]metricDef, len(perLayer))
	for i, l := range perLayer {
		defs[i] = l.metricDef
		if l.moves == "" {
			t.Errorf("%s: no end-to-end metric it should move", l.name)
		}
	}
	compare("per_layer", bj.PerLayer, defs)
}
