package main

import (
	"bufio"
	"bytes"
	"cmp"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"symmeter/internal/metrics"
)

// clockBase is the time origin of sample completion times.
var clockBase = time.Now()

// sample is one timed operation: when it completed, in nanoseconds since
// clockBase, and how long it took, in nanoseconds.
type sample struct{ at, d int64 }

// samples is a set of timed operations.
type samples []sample

func (s *samples) add(end time.Time, d time.Duration) {
	*s = append(*s, sample{int64(end.Sub(clockBase)), int64(d)})
}

// quantile is the nearest-rank q-quantile of the durations in nanoseconds,
// 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	ds := make([]int64, len(s))
	for i, v := range s {
		ds[i] = v.d
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return float64(ds[max(i, 0)])
}

// timeSlices is how many consecutive slices of a timed phase the
// end-to-end latencies and rates are computed over.
const timeSlices = 10

// byTime returns the samples in completion order.
func (s samples) byTime() samples {
	t := slices.Clone(s)
	slices.SortFunc(t, func(a, b sample) int { return cmp.Compare(a.at, b.at) })
	return t
}

// sliced is the median, over timeSlices consecutive slices of the samples
// in completion order with equal counts, of each slice's q-quantile. A
// stall of the shared machine that hits fewer than half of the slices does
// not move it.
func (s samples) sliced(q float64) float64 {
	if len(s) < timeSlices {
		return s.quantile(q)
	}
	t := s.byTime()
	vs := make([]float64, timeSlices)
	for i := range vs {
		vs[i] = t[i*len(s)/timeSlices : (i+1)*len(s)/timeSlices].quantile(q)
	}
	return median(vs)
}

// rate is the median, over timeSlices consecutive slices with equal counts,
// of the completions per second within each slice. Pauses between the
// pieces of a phase (set-ups, rounds) fall into few slices and do not move
// it.
func (s samples) rate() float64 {
	if len(s) <= timeSlices {
		return 0
	}
	t := s.byTime()
	vs := make([]float64, 0, timeSlices)
	for i := 0; i < timeSlices; i++ {
		b0, b1 := i*(len(t)-1)/timeSlices, (i+1)*(len(t)-1)/timeSlices
		if span := t[b1].at - t[b0].at; span > 0 {
			vs = append(vs, float64(b1-b0)/(float64(span)/1e9))
		}
	}
	return median(vs)
}

func (s samples) sum() time.Duration {
	var t int64
	for _, v := range s {
		t += v.d
	}
	return time.Duration(t)
}

// median of float values, 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// hostSteal reads the machine's CPU time counters from /proc/stat: the
// time the hypervisor ran other guests while this machine had work
// (steal) and the total, in clock ticks; zeros where unavailable.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields); i++ {
		v, _ := strconv.ParseInt(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process counters a phase is charged with.
type usage struct {
	at    time.Time
	cpu   time.Duration
	gc    uint32
	alloc uint64
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuTime(), gc: ms.NumGC, alloc: ms.TotalAlloc}
}

// delta is the usage between two snapshots.
type delta struct {
	wall, cpu time.Duration
	gc        uint32
	alloc     uint64
}

func (u usage) to(v usage) delta {
	return delta{wall: v.at.Sub(u.at), cpu: v.cpu - u.cpu, gc: v.gc - u.gc, alloc: v.alloc - u.alloc}
}

// exported is one scrape of a metrics registry, as /metrics would serve it,
// keyed by series: `name` or `name{k="v",...}` with labels sorted by key.
type exported map[string]float64

func scrape(reg *metrics.Registry) exported {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := exported{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// quantileUS reads a latency family's exported P² quantile in microseconds.
func (e exported) quantileUS(name, q string) float64 {
	return e[name+`{quantile="`+q+`"}`] * 1e6
}

// frames sums a transport counter family over the given direction and
// frame types.
func (e exported) frames(family, dir, types string) float64 {
	var n float64
	for _, t := range types {
		n += e[family+`{dir="`+dir+`",type="`+string(t)+`"}`]
	}
	return n
}
