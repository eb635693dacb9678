package main

import (
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"snvmm/internal/sim"
	"snvmm/internal/telemetry/trace"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n       int
		ok      bool
		pct, at float64
	}{
		{n: 10, ok: false},
		{n: 11, ok: true, pct: 100.0 / 11, at: 1},               // only the lowest has ten above
		{n: 500, ok: true, pct: 98, at: 490},                    // p99 has five above; p98 has ten
		{n: 1000, ok: true, pct: 99, at: 990},                   // p99 has exactly ten above
		{n: 20000, ok: true, pct: 99, at: 19800},                // capped at p99
		{n: 1010, ok: true, pct: 100 * 1000.0 / 1010, at: 1000}, // p99 would leave ten; rank 1000 leaves ten too
	} {
		pct, v, ok := tail(seq(tc.n))
		if ok != tc.ok {
			t.Fatalf("n=%d: ok=%v, want %v", tc.n, ok, tc.ok)
		}
		if !ok {
			continue
		}
		if above := tc.n - int(v); above < 10 {
			t.Errorf("n=%d: value %v has %d samples above it, want >= 10", tc.n, v, above)
		}
		if v != tc.at || pct < tc.pct-1e-9 || pct > tc.pct+1e-9 {
			t.Errorf("n=%d: tail = p%.4f -> %v, want p%.4f -> %v", tc.n, pct, v, tc.pct, tc.at)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", got)
	}
}

func TestFailedFracAccounting(t *testing.T) {
	rep := newReport()
	if got := rep.failedFrac(); got != 0 {
		t.Fatalf("empty report failed_frac = %v", got)
	}
	boom := errors.New("boom")
	rep.op(nil, "a")
	rep.op(boom, "b")
	rep.ops([]error{nil, nil, boom, nil}, "batch")
	if rep.attempted != 6 || rep.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 6 and 2", rep.attempted, rep.failed)
	}
	if got := rep.failedFrac(); got != 2.0/6 {
		t.Errorf("failed_frac = %v, want 1/3", got)
	}
	if rep.correct() {
		t.Error("a run with failed operations must not be correct")
	}
}

// smallStore is a working set small enough for a unit test.
var smallStore = storeConfig{blocks: 128, batchEvery: 8, batchOps: 16, readFrac: 0.7, sample: 16}

func TestShadowRejectsCorruptedRead(t *testing.T) {
	rep := newReport()
	s, err := openStore(smallStore, 3, 2, rep, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	got, err := s.dev.Read(addrOf(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.shadow.verify(5, got); err != nil {
		t.Fatalf("intact read rejected: %v", err)
	}
	got[17] ^= 0x40
	if err := s.shadow.verify(5, got); err == nil {
		t.Fatal("corrupted read result accepted by the shadow check")
	}
	if err := s.shadow.verify(6, append([]byte(nil), s.shadow[5]...)); err == nil {
		t.Fatal("another block's payload accepted by the shadow check")
	}
}

// TestChecksPassOnTwoSeeds runs every workload's correctness checks, at
// reduced scale, on the seed the recorded numbers used and on one they did
// not.
func TestChecksPassOnTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds NIST data sets")
	}
	for _, seed := range []int64{1, 1009} {
		rep := newReport()
		s, err := openStore(smallStore, seed, runtime.NumCPU(), rep, trace.Context{})
		if err != nil {
			t.Fatal(err)
		}
		var st storeStats
		s.run(rep, &st, spanner{}, func(n int, _ time.Duration) bool { return n >= 400 })
		s.powerCycle(rep)
		s.close()
		if st.read == nil || st.write == nil || st.batchRead == nil || st.batchWrite == nil {
			t.Errorf("seed %d: a request class got no samples", seed)
		}

		tb, err := setupTables(tablesConfig{seqs: 2, bits: 1024})
		if err != nil {
			t.Fatal(err)
		}
		tb.pass(rep, seed, spanner{})

		sw, err := setupSweep(20000, seed, runtime.NumCPU())
		if err != nil {
			t.Fatal(err)
		}
		sw.pass(rep, seed, spanner{})

		if !rep.correct() || rep.failed != 0 {
			t.Errorf("seed %d: %d of %d operations failed; checks: %v", seed, rep.failed, rep.attempted, rep.problems)
		}
	}
}

func TestPassesTimeEverySetUpAndPass(t *testing.T) {
	rep := newReport()
	n := 0
	setups, walls, err := passes(rep, 30*time.Millisecond,
		func() (int, error) { n++; return n, nil },
		func(int) time.Duration { time.Sleep(10 * time.Millisecond); return 0 })
	if err != nil || len(setups) != n || len(walls) != n || n < 3 {
		t.Fatalf("%d set-ups, %d set-up and %d pass times, err %v: want one of each per pass, at least 3",
			n, len(setups), len(walls), err)
	}
	if _, walls, _ := passes(rep, 0, func() (int, error) { return 0, nil }, func(int) time.Duration { return 0 }); len(walls) != 1 {
		t.Fatalf("a zero-length phase ran %d passes, want 1", len(walls))
	}
	boom := errors.New("boom")
	if _, _, err := passes(rep, time.Second, func() (int, error) { return 0, boom }, func(int) time.Duration { return 0 }); err != boom {
		t.Fatalf("a failed set-up returned %v, want its error", err)
	}
}

// TestSimCyclesPinned pins the simulated cycles of a small serial sweep.
// The count is what the simulator computes, not how fast: a change that
// only makes the simulator faster must leave it exactly as it is, and a
// change that moves it changes the model and must say so here.
func TestSimCyclesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep")
	}
	s, err := setupSweep(5000, 11, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	serial, _, cycles := s.serialRuns(rep, 11, trace.Context{})
	_, rows := s.pass(rep, 11, spanner{})
	sameRows(rep, serial, rows)
	if !rep.correct() {
		t.Fatalf("checks failed: %v", rep.problems)
	}
	const want = 15066615
	if cycles != want {
		t.Errorf("serial sweep at 5000 instructions, seed 11: %d simulated cycles, want %d", cycles, want)
	}
}

func TestSameRowsRejectsADifferentRow(t *testing.T) {
	row := func(ov float64) sim.Row {
		return sim.Row{Workload: "w", BaseIPC: 1.5,
			OverheadPct: map[string]float64{"AES": ov}, EncryptedPct: map[string]float64{"AES": 100}}
	}
	rep := newReport()
	sameRows(rep, []sim.Row{row(10)}, []sim.Row{row(10)})
	if !rep.correct() {
		t.Fatalf("identical rows rejected: %v", rep.problems)
	}
	sameRows(rep, []sim.Row{row(10)}, []sim.Row{row(10.000001)})
	if rep.correct() {
		t.Fatal("a parallel row that differs from the serial runs was accepted")
	}
}

func TestSweepCheckRejectsMisorderedOverheads(t *testing.T) {
	s := &sweep{insts: sweepInsts, schemes: sim.Schemes()}
	row := sim.Row{Workload: "w", OverheadPct: map[string]float64{}, EncryptedPct: map[string]float64{}}
	for _, sc := range s.schemes {
		row.EncryptedPct[sc.Name] = 100
	}
	row.OverheadPct["SPE-serial"], row.OverheadPct["SPE-parallel"], row.OverheadPct["AES"] = 1, 2, 10
	rep := newReport()
	s.check(rep, []sim.Row{row})
	if !rep.correct() {
		t.Fatalf("well-ordered sweep rejected: %v", rep.problems)
	}
	row.OverheadPct["SPE-parallel"] = 20
	rep = newReport()
	s.check(rep, []sim.Row{row})
	if rep.correct() {
		t.Fatal("SPE-parallel above AES accepted")
	}
	row.OverheadPct["SPE-parallel"], row.EncryptedPct["AES"] = 2, 90
	rep = newReport()
	s.check(rep, []sim.Row{row})
	if rep.correct() {
		t.Fatal("AES below 100% coverage accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	recs := []trace.SpanRecord{
		{SpanID: 1, StartNano: 0, DurNs: 100, Subsystem: "bench"},
		{SpanID: 2, ParentID: 1, StartNano: 10, DurNs: 30, Subsystem: "core"},
		{SpanID: 3, ParentID: 1, StartNano: 30, DurNs: 30, Subsystem: "core"}, // overlaps 2: union 10..60
		{SpanID: 4, ParentID: 2, StartNano: 15, DurNs: 5, Subsystem: "xbar"},
		{SpanID: 5, ParentID: 1, StartNano: 90, DurNs: -1, Subsystem: "bench"}, // instant: ignored
	}
	got := selfTimes(recs)
	want := map[string]float64{"bench": 50, "core": 55, "xbar": 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric lists and
// BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []string, want []struct{ Name string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i].Name {
				t.Errorf("%s[%d]: program %q, BENCHMARK.json %q", what, i, got[i], want[i].Name)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
}
