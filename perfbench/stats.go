package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is a set of timings in one unit; the zero value is empty.
type samples []float64

func (s *samples) add(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile of sorted values
// (NaN when empty).
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

func median(vals []float64) float64 {
	return percentile(append(samples(nil), vals...).sorted(), 50)
}

// tail applies the reporting rule for tail latency: the highest percentile,
// capped at 99, that still has at least ten samples above it. It returns
// that percentile and its nearest-rank value; ok is false when fewer than
// eleven samples exist, since no percentile then has ten above it.
func tail(sorted []float64) (pct, v float64, ok bool) {
	n := len(sorted)
	if n < 11 {
		return 0, 0, false
	}
	idx := n - 11 // exactly ten samples above
	if p99 := int(math.Ceil(0.99*float64(n))) - 1; p99 < idx {
		idx = p99
	}
	return 100 * float64(idx+1) / float64(n), sorted[idx], true
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// stealTicks reads the host's cumulative steal time and total CPU time, in
// clock ticks summed over all CPUs, from the first line of /proc/stat:
// "cpu user nice system idle iowait irq softirq steal ...".
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseUint(f, 10, 64)
		if i == 0 || err != nil {
			continue
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealDuring runs f and reports the share of host CPU time the
// hypervisor stole while it ran, so a reader can tell a noisy host from a
// slower program.
func stealDuring(rep *report, f func()) {
	s0, t0 := stealTicks()
	f()
	s1, t1 := stealTicks()
	if t1 > t0 {
		rep.set("host.steal_frac", float64(s1-s0)/float64(t1-t0), "frac")
	}
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

// cpuClock reads the runtime's cumulative GC and total CPU time, so a
// phase's GC share is the ratio of the two deltas.
type cpuClock struct{ gc, total float64 }

func readCPUClock() cpuClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuClock
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

func (c cpuClock) gcFracSince(start cpuClock) float64 {
	if d := c.total - start.total; d > 0 {
		return (c.gc - start.gc) / d
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, its operation accounting and the
// outcome of its correctness checks.
type report struct {
	metrics   map[string]metric
	order     []string
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op accounts one attempted operation and reports whether it succeeded. A
// failed operation also fails the run's correctness.
func (r *report) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// ops accounts a batch of operations with one error slot each.
func (r *report) ops(errs []error, what string) {
	for _, err := range errs {
		r.op(err, what)
	}
}

// fail records a failed correctness check. Only the first few are kept
// verbatim; the count is what matters.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "further failures omitted")
	}
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) checkErr(err error) {
	if err != nil {
		r.fail("%v", err)
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// failedFrac is errors returned divided by operations attempted.
func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}
