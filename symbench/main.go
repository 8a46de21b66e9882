// Command symbench is symmeter's end-to-end benchmark. It starts a
// server.Service on loopback TCP over a durable storage.Engine (fsync=group)
// in a directory under -dir, drives it only through pkg/client with inputs
// generated from -seed, checks every answer, and prints one line per metric
// and, last, a JSON summary.
//
//	symbench -workload ingest|query|mixed -seed N -seconds S -trace 0|1
//
// With -trace 0 the run measures the end-to-end metrics, untraced. With
// -trace 1 it runs the workload twice for S/2 seconds each, untraced and
// then with wrappers timing every call into the storage and query layers,
// and reports the per-layer metrics and the tracing overhead; the spans are
// written to <dir>/trace-<workload>.csv.
//
// The command exits non-zero without a summary when it cannot run, and
// after the summary when the correctness gate failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"symmeter/internal/symbolic"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbench:", err)
	}
	os.Exit(code)
}

// summary is the last line of output.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("symbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "ingest, query or mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	dir := fs.String("dir", ".bench_build", "directory for node data and span files")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if !slices.Contains(workloads, *workload) {
		return 2, fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return 1, err
	}
	root, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(root)
	env, err := environment(root)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, env)

	dur := time.Duration(*seconds) * time.Second
	steal0, total0 := hostSteal()
	var s summary
	if *trace == 0 {
		p, err := runPhase(*workload, *seed, fullSizes, dur, fullSizes.setups, root, nil)
		if err != nil {
			return 1, err
		}
		vals := endToEndValues(p)
		printMetrics(out, *workload, endToEnd, vals)
		printTails(out, *workload, p)
		s = summarize(out, []*phase{p}, endToEnd, vals)
	} else {
		s, err = traced(out, *workload, *seed, fullSizes, dur/2, *dir, root)
		if err != nil {
			return 1, err
		}
	}
	steal1, total1 := hostSteal()
	fmt.Fprintf(out, "host: CPU steal %.1f%% over the run\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	line, err := json.Marshal(s)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(line))
	if !s.Correct {
		return 1, errors.New("correctness gate failed")
	}
	return 0, nil
}

// traced runs the workload untraced and then traced for dur each, prints
// both phases' end-to-end metrics and the per-layer metrics, checks the
// span join and writes the spans to spanDir.
func traced(out io.Writer, w string, seed int64, sz sizes, dur time.Duration, spanDir, root string) (summary, error) {
	base, err := runPhase(w, seed, sz, dur, 1, root, nil)
	if err != nil {
		return summary{}, err
	}
	tr := newTracer()
	p, err := runPhase(w, seed, sz, dur, 1, root, tr)
	if err != nil {
		return summary{}, err
	}
	printMetrics(out, w+" untraced", endToEnd, endToEndValues(base))
	printMetrics(out, w+" traced", endToEnd, endToEndValues(p))
	j := join(p.timed.spans, p.layer)
	if j.violations > 0 {
		p.failures = append(p.failures, fmt.Sprintf("trace: %d layer spans outside their client span", j.violations))
	}
	fmt.Fprintf(out, "trace: joined %d ingest batches and %d queries, %d client spans unjoined\n", len(j.ingest), len(j.queries), j.unjoined)
	vals := layerValues(p, base, j)
	defs := make([]metricDef, len(perLayer))
	for i, l := range perLayer {
		defs[i] = l.metricDef
		v := vals[l.name]
		fmt.Fprintf(out, "%s layer %-32s %14.4f %-6s n=%-9d should move: %s\n", w, l.name, v.v, l.unit, v.n, l.moves)
	}
	crossCheck(out, vals)
	if err := writeSpans(filepath.Join(spanDir, "trace-"+w+".csv"), p.timed.spans, p.layer); err != nil {
		return summary{}, err
	}
	return summarize(out, []*phase{base, p}, defs, vals), nil
}

// summarize prints failures and failed_frac and builds the summary line.
func summarize(out io.Writer, phases []*phase, defs []metricDef, vals map[string]value) summary {
	s := summary{Metrics: make(map[string]summaryValue, len(defs))}
	for _, d := range defs {
		s.Metrics[d.name] = summaryValue{Value: vals[d.name].v, Unit: d.unit}
	}
	for _, p := range phases {
		s.Attempted += p.tried
		s.Failed += int64(len(p.failures))
		for i, f := range p.failures {
			if i == 10 {
				fmt.Fprintf(out, "failure: ... %d more\n", len(p.failures)-i)
				break
			}
			fmt.Fprintln(out, "failure:", f)
		}
		if p.fleetSumDiffs > 0 {
			fmt.Fprintf(out, "note: %d fleet sums differed from the in-process engine's in their last bits (within %g)\n", p.fleetSumDiffs, sumTolerance)
		}
	}
	fmt.Fprintf(out, "failed_frac %g (%d of %d operations)\n", ratio(float64(s.Failed), float64(s.Attempted)), s.Failed, s.Attempted)
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

// environment describes what the result was measured on, and refuses to run
// where the generator would use more goroutines or connections than there
// are CPUs.
func environment(dir string) (string, error) {
	nproc := runtime.NumCPU()
	if generators > nproc {
		return "", fmt.Errorf("the generator uses %d goroutines and connections, more than the %d CPUs", generators, nproc)
	}
	return fmt.Sprintf("env gomaxprocs=%d nproc=%d go=%s kernels=%s fsync=group fs=%s net=loopback generators=%d",
		runtime.GOMAXPROCS(0), nproc, runtime.Version(), symbolic.KernelPath(), fsType(dir), generators), nil
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
