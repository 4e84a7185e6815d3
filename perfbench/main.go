// Command perfbench is Fremont's end-to-end benchmark. It drives the real
// program — explorers on a simulated campus, jclient over loopback TCP, a
// jserver with a WAL at fsync=always, a subscriber feeding an
// analysis.Monitor — and prints every metric by name with its unit and
// sample count, ending with one JSON result line.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload campus-discovery --seed 1 --seconds 10 --trace 0
//
// Workloads: campus-discovery, observation-ingest, journal-100k-mixed.
// With --trace 1 the run also records spans around every call into the
// program and reports the per-layer metrics instead of the end-to-end ones.
// See DESIGN.md for what each workload runs and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Params is one run's command line.
type Params struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// DataDir holds the run's WAL and snapshot files and its trace file.
	DataDir string
	// Drop, when > 0, makes the store path silently drop the Drop-th store
	// (1-based) — the self-test's proof that the checks catch a lost store.
	Drop int
}

// Result is what a workload reports.
type Result struct {
	Attempted int
	Failed    int
	Checks    []string // failed correctness checks, human-readable
	Metrics   []Metric
}

// Metric is one reported number.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	N     int    // samples behind the value (0 = a count or a ratio)
	Note  string // e.g. the highest percentile with >= 10 samples beyond it
	Layer bool   // per-layer (traced run) rather than end-to-end
}

func (r *Result) add(m Metric) { r.Metrics = append(r.Metrics, m) }

func (r *Result) fail(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

type workload func(p Params) (*Result, error)

var workloads = map[string]workload{
	"campus-discovery":   runCampus,
	"observation-ingest": runIngest,
	"journal-100k-mixed": runMixed,
}

// endToEnd are the metrics every workload prints with --trace 0; they are
// the ones BENCHMARK.json bounds.
var endToEnd = []string{"setup_s", "heap_peak_mb", "cpu_ms_per_op"}

func main() {
	var p Params
	var trace int
	flag.StringVar(&p.Workload, "workload", "", "workload to run")
	flag.Int64Var(&p.Seed, "seed", 1, "input seed")
	flag.Float64Var(&p.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&p.DataDir, "data", filepath.Join(".bench_build", "data"), "directory for WAL, snapshot and trace files")
	flag.Parse()
	p.Trace = trace == 1
	w, ok := workloads[p.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", p.Workload)
		os.Exit(2)
	}
	res, err := run(w, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, p, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one workload in a fresh data directory it removes after.
func run(w workload, p Params) (*Result, error) {
	if err := os.MkdirAll(p.DataDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.DataDir, p.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p.DataDir = dir
	return w(p)
}

// emit prints the human-readable report, then the JSON result line. The
// JSON carries the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1).
func emit(f io.Writer, p Params, res *Result) error {
	fmt.Fprintf(f, "workload %s seed %d seconds %g trace %v\n", p.Workload, p.Seed, p.Seconds, p.Trace)
	for _, m := range res.Metrics {
		kind := "e2e"
		if m.Layer {
			kind = "layer"
		}
		line := fmt.Sprintf("  %-5s %-40s %14.6g %-6s", kind, m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += " " + m.Note
		}
		fmt.Fprintln(f, line)
	}
	for _, c := range res.Checks {
		fmt.Fprintf(f, "  CHECK FAILED: %s\n", c)
	}
	failed := res.Failed + len(res.Checks)
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	fmt.Fprintf(f, "  %-5s %-40s %14.6g %-6s (attempted %d, failed %d)\n", "e2e", "failed_ratio",
		float64(failed)/float64(attempted), "ratio", attempted, failed)

	want := map[string]bool{}
	if p.Trace {
		for _, name := range perLayerNames() {
			want[name] = true
		}
	} else {
		for _, name := range endToEnd {
			want[name] = true
		}
	}
	out := map[string]map[string]any{}
	for _, m := range res.Metrics {
		if want[m.Name] {
			out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	var missing []string
	for name := range want {
		if _, ok := out[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload did not produce metrics %v", missing)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.Checks) == 0 && res.Failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(f, string(line))
	return nil
}

// stopwatch measures wall time since its creation.
type stopwatch time.Time

func startWatch() stopwatch          { return stopwatch(time.Now()) }
func (s stopwatch) seconds() float64 { return time.Since(time.Time(s)).Seconds() }
