package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank method (xs is
// sorted in place). An empty sample is 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailNote names the highest of p99.9, p99, p95, p90 with at least ten
// samples beyond it, and its value — the percentile the sample supports.
func tailNote(xs []float64) string {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if float64(len(xs))*(1-q) >= 10 {
			return fmt.Sprintf("p%g=%.4g", q*100, quantile(xs, q))
		}
	}
	return "(fewer than 100 samples: no tail percentile)"
}

// latencyMetrics reports a latency sample taken in windows (passes,
// seconds, snapshot periods) as <name>_p50_ms and <name>_p99_ms: the
// median over windows of each window's p50 and p99, which a transient
// stall of the machine moves far less than a percentile of the pooled
// sample. The note gives the pooled sample's tail and flags windows too
// small to have ten samples beyond their p99.
func latencyMetrics(r *Result, name string, windows [][]float64) {
	var all, p50s, p99s []float64
	smallest := -1
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		all = append(all, w...)
		xs := append([]float64(nil), w...)
		p50s = append(p50s, median(xs))
		p99s = append(p99s, quantile(xs, 0.99))
		if smallest < 0 || len(w) < smallest {
			smallest = len(w)
		}
	}
	note := fmt.Sprintf("%d windows, pooled %s", len(p50s), tailNote(all))
	if float64(smallest)*0.01 < 10 {
		note += fmt.Sprintf("; smallest window %d: fewer than 10 samples beyond p99", smallest)
	}
	r.add(Metric{Name: name + "_p50_ms", Unit: "ms", Value: median(p50s), N: len(all), Note: note})
	r.add(Metric{Name: name + "_p99_ms", Unit: "ms", Value: median(p99s), N: len(all)})
}

// ms converts an interval to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeap forces a full collection and returns the live heap in bytes.
// The second cycle drops sync.Pool's victim cache, so pooled buffers do
// not count as retained.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// reportHeap adds heap_peak_mb: the largest retained heap a workload
// observed at its quiescent points (the end of a pass, the end of the
// load). Retained memory is steady from run to run, where the
// instantaneous heap swings with GC timing.
func reportHeap(r *Result, bytes uint64) {
	r.add(Metric{Name: "heap_peak_mb", Unit: "MB", Value: float64(bytes) / (1 << 20)})
}

// cpuTime is the CPU time (user + system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuPerOp reports cpu_ms_per_op: process CPU time per client operation,
// taken per window (a pass, a second, a snapshot period) and reported as
// the median over windows, so a stretch of the run slowed by the machine
// moves it little. cpu[i] and ops[i] belong to window i.
func cpuPerOp(r *Result, cpu []time.Duration, ops []int) {
	var per []float64
	total := 0
	for i := range cpu {
		if ops[i] > 0 {
			per = append(per, ms(cpu[i])/float64(ops[i]))
			total += ops[i]
		}
	}
	r.add(Metric{Name: "cpu_ms_per_op", Unit: "ms", Value: median(per), N: total,
		Note: fmt.Sprintf("%d windows", len(per))})
}

// cpuWindows samples the process CPU time at start and at the end of
// each of n windows of the given width; it returns the CPU time spent in
// each window, the last one cut short if stop closes inside it.
func cpuWindows(start time.Time, width time.Duration, n int, stop <-chan struct{}) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	go func() {
		var spent []time.Duration
		last := cpuTime()
		for k := 1; k <= n; k++ {
			stopped := false
			select {
			case <-stop:
				stopped = true // the load ended inside window k: keep it
			case <-time.After(time.Until(start.Add(time.Duration(k) * width))):
			}
			now := cpuTime()
			spent = append(spent, now-last)
			last = now
			if stopped {
				break
			}
		}
		out <- spent
	}()
	return out
}

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 5

// repeatSetup runs fn setupReps times, closing every result but the last,
// and reports setup_s.
func repeatSetup[T any](r *Result, fn func() (T, error), closeFn func(T)) (T, error) {
	var times []float64
	var last T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeFn(last)
		}
		w := startWatch()
		v, err := fn()
		if err != nil {
			return v, err
		}
		times = append(times, w.seconds())
		last = v
	}
	r.add(Metric{Name: "setup_s", Unit: "s", Value: median(times), N: len(times)})
	return last, nil
}
