// Command perfbench is the repository benchmark. It drives three workloads
// through the packages' public functions — the SPE block store, the
// reproduction of the paper's Tables 1 and 2, and the Fig. 7/8 sweep —
// checks their outputs, and prints every metric as "name value unit" lines
// followed by one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the JSON metrics are the end-to-end metrics, measured
// untraced for -seconds. With -trace 1 they are the per-layer metrics of
// the traced run, whose spans are exported as Chrome trace-event JSON under
// .bench_build/traces/. A failed check exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"snvmm/internal/nist"
	"snvmm/internal/telemetry/trace"
)

// setupRepeats is how many times a store run performs its set-up before
// the measured phase; setup_s is the median.
const setupRepeats = 7

// repeatSetup runs setup setupRepeats times, each from a collected heap,
// keeps the last result and returns every set-up's duration in seconds.
// discard, if non-nil, releases each earlier result before the next set-up
// starts.
func repeatSetup[T any](setup func() (T, error), discard func(T)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, secs, nil
}

// endToEnd are the metrics every untraced run reports, as BENCHMARK.json
// lists them.
var endToEnd = []string{"setup_s", "peak_rss_mb", "work_per_s", "p50_ms"}

// perLayer are the metrics every traced run reports, as BENCHMARK.json
// lists them.
var perLayer = func() []string {
	names := []string{
		"poe.solve_ms", "snvmm.power_on_ms", "core.new_block_us",
		"core.block_encrypt_us", "core.block_decrypt_us",
		"xbar.write_block_us", "xbar.read_block_us",
		"xbar.pulse_warm_us", "xbar.pulse_after_write_us", "prng.schedule_us",
		"store.batch_speedup_read", "store.batch_speedup_write",
		"store.ladder_coverage", "store.ladder_gap_us",
		"store.allocs_per_block", "store.alloc_bytes_per_block", "store.gc_cpu_frac",
		"store.heap_bytes_per_block",
		"poe.table1_ms", "nist.build_hw_avalanche_s", "nist.build_other_s",
		"xbar.cold_calibration_ms", "xbar.cal.builds", "circuit.factor_systems", "linalg.cg.solves",
		"core.cipher_encrypt_us", "nist.suite_s",
	}
	for _, t := range nist.TestNames {
		names = append(names, "nist.test."+t+"_ms")
	}
	names = append(names, "tables.layer_gap_frac")
	for _, s := range []string{"plain", "aes", "i-nvmm", "spe-serial", "spe-parallel", "stream"} {
		names = append(names, "sim.run_s."+s)
	}
	names = append(names, "trace.gen_ns_per_inst", "sim.worker_busy_frac", "trace_overhead_frac")
	for _, l := range layers {
		names = append(names, "self_ms."+l)
	}
	return names
}()

// workload is one named input set: how an untraced run measures it, and
// how a traced run compares equal work with and without spans.
type workload struct {
	why     string
	measure func(rep *report, seed int64, workers int, d time.Duration) error
	// overhead runs the same work untraced and then traced and returns
	// traced wall / untraced wall - 1.
	overhead func(rep *report, seed int64, workers int, tr *trace.Tracer) (float64, error)
}

var workloads = map[string]workload{
	"store-mixed": {
		why:      "SPE block store: single and 64-op batch reads/writes on a served SPE-parallel device",
		measure:  measureStore,
		overhead: overheadStore,
	},
	"paper-tables": {
		why:      "reproduction of Table 1 (placement ILP) and a reduced Table 2 (NIST suite on nine data sets)",
		measure:  measureTables,
		overhead: overheadTables,
	},
	"perf-sweep": {
		why:      "Fig. 7/8 sweep: 10 profiles x (plain + 5 schemes) through sim.SweepParallel",
		measure:  measureSweep,
		overhead: overheadSweep,
	},
}

func measureStore(rep *report, seed int64, workers int, d time.Duration) error {
	s, secs, err := repeatSetup(func() (*store, error) {
		return openStore(storeDefault, seed, workers, rep, trace.Context{})
	}, func(s *store) {
		s.close()
		debug.FreeOSMemory() // so peak RSS reflects one device
	})
	if err != nil {
		return err
	}
	defer s.close()
	runtime.GC()
	rep.set("setup_s", median(secs), "s")
	var st storeStats
	stealDuring(rep, func() {
		s.run(rep, &st, spanner{}, func(_ int, el time.Duration) bool { return el >= d })
	})
	s.powerCycle(rep)
	storeMetrics(rep, &st)
	return nil
}

// passes repeats, until d has passed (at least once), a fresh set-up and
// one pass on it, each set-up from a collected heap as a fresh run would
// start. It returns every set-up's and every pass's time in seconds. The
// set-ups are spread over the whole phase, so their median, like the
// passes', is taken over the host's speed across the run and not over one
// moment of it.
func passes[T any](rep *report, d time.Duration, setup func() (T, error), pass func(T) time.Duration) (setups, walls []float64, err error) {
	stealDuring(rep, func() {
		start := time.Now()
		for len(walls) == 0 || time.Since(start) < d {
			runtime.GC()
			t0 := time.Now()
			v, e := setup()
			if e != nil {
				err = e
				return
			}
			setups = append(setups, time.Since(t0).Seconds())
			runtime.GC()
			walls = append(walls, pass(v).Seconds())
		}
	})
	rep.set("passes", float64(len(walls)), "count")
	return setups, walls, err
}

func measureTables(rep *report, seed int64, _ int, d time.Duration) error {
	setups, walls, err := passes(rep, d,
		func() (*tables, error) { return setupTables(tablesDefault) },
		func(t *tables) time.Duration { return t.pass(rep, seed, spanner{}).wall })
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("work_per_s", float64(len(walls))/sum(walls), "1/s") // passes over their total time
	rep.set("p50_ms", median(walls)*1000, "ms")
	rep.set("tables.wall_s", median(walls), "s")
	return nil
}

func measureSweep(rep *report, seed int64, workers int, d time.Duration) error {
	var insts float64
	setups, walls, err := passes(rep, d,
		func() (*sweep, error) { return setupSweep(sweepInsts, seed, workers) },
		func(s *sweep) time.Duration {
			insts = float64(s.passInsts())
			wall, _ := s.pass(rep, seed, spanner{})
			return wall
		})
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("work_per_s", insts*float64(len(walls))/sum(walls), "1/s") // over all passes' time
	rep.set("p50_ms", median(walls)*1000, "ms")
	rep.set("sweep.minst_per_s", insts*float64(len(walls))/sum(walls)/1e6, "Minst/s")
	return nil
}

// The overhead functions run equal work untraced (A) and traced (B) in the
// order A B B A, so a drift across the four segments cancels out.
var abba = [4]bool{false, true, true, false}

// overheadStore replays one request stream in every segment on one device.
func overheadStore(rep *report, seed int64, workers int, tr *trace.Tracer) (float64, error) {
	s, err := openStore(storeDefault, seed, workers, rep, trace.Context{})
	if err != nil {
		return 0, err
	}
	defer s.close()
	return abbaRatio(tr, func(sp spanner) time.Duration {
		s.rng.Seed(seed + 1)
		var st storeStats
		s.run(rep, &st, sp, func(n int, _ time.Duration) bool { return n >= ladderLoop/2 })
		return st.wall
	}), nil
}

func overheadTables(rep *report, seed int64, _ int, tr *trace.Tracer) (float64, error) {
	t, err := setupTables(tablesDefault)
	if err != nil {
		return 0, err
	}
	return abbaRatio(tr, func(sp spanner) time.Duration { return t.pass(rep, seed, sp).wall }), nil
}

func overheadSweep(rep *report, seed int64, workers int, tr *trace.Tracer) (float64, error) {
	s, err := setupSweep(sweepInsts, seed, workers)
	if err != nil {
		return 0, err
	}
	return abbaRatio(tr, func(sp spanner) time.Duration {
		wall, _ := s.pass(rep, seed, sp)
		return wall
	}), nil
}

// abbaRatio runs segment in the A B B A order and returns the traced time
// over the untraced time, minus one.
func abbaRatio(tr *trace.Tracer, segment func(spanner) time.Duration) float64 {
	var plain, traced time.Duration
	for _, on := range abba {
		if on {
			traced += segment(spanner{tr: tr})
		} else {
			plain += segment(spanner{})
		}
	}
	return traced.Seconds()/plain.Seconds() - 1
}

// runTraced is the traced run: the workload's tracing overhead, then the
// whole per-layer ladder, self time per layer from the recorded spans, and
// the validated Chrome export.
func runTraced(name string, w workload, rep *report, seed int64, workers int) error {
	tr := trace.New(traceRing)
	over, err := w.overhead(rep, seed, workers, tr)
	if err != nil {
		return err
	}
	rep.set("trace_overhead_frac", over, "frac")
	ladder(rep, seed, workers, tr)
	recs := tr.Spans(tr.Cap())
	rep.check(len(recs) < tr.Cap(), "span ring full (%d spans): self times would miss overwritten spans", len(recs))
	self := selfTimes(recs)
	for _, l := range layers {
		rep.set("self_ms."+l, self[l]/1e6, "ms")
	}
	path := filepath.Join(".bench_build", "traces", name+".json")
	if err := exportTrace(tr, path); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(recs), path)
	return nil
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish prints the metric lines, the failed checks and the JSON result
// line holding the named metrics, and returns whether the run is correct.
func finish(rep *report, names []string) bool {
	out := result{Metrics: make(map[string]metric, len(names))}
	for _, n := range names {
		m, ok := rep.metrics[n]
		switch {
		case !ok:
			rep.fail("metric %s was not measured", n)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			rep.fail("metric %s is %v", n, m.Value)
			m.Value = 0
		}
		out.Metrics[n] = m
	}
	for _, n := range rep.order {
		m := rep.metrics[n]
		fmt.Printf("%-34s %16.10g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	out.Correct, out.Attempted, out.Failed = rep.correct(), rep.attempted, rep.failed
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return out.Correct
}

func main() {
	name := flag.String("workload", "", "store-mixed, paper-tables or perf-sweep")
	seed := flag.Int64("seed", 1, "workload seed: fixes every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the untraced measurement")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {store-mixed|paper-tables|perf-sweep} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	workers := runtime.NumCPU()
	rep := newReport()
	fmt.Printf("workload %s (%s), seed %d, %d workers\n", *name, w.why, *seed, workers)
	names := endToEnd
	var err error
	if *traced == 1 {
		names = perLayer
		err = runTraced(*name, w, rep, *seed, workers)
	} else {
		err = w.measure(rep, *seed, workers, time.Duration(*seconds)*time.Second)
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		rep.set("failed_frac", rep.failedFrac(), "frac")
	}
	if err != nil {
		rep.fail("%v", err)
	}
	if !finish(rep, names) {
		os.Exit(1)
	}
}
