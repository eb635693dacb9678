package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"snvmm/internal/mem"
	"snvmm/internal/secure"
	"snvmm/internal/sim"
	"snvmm/internal/telemetry/trace"
	tgen "snvmm/internal/trace"
)

// The perf-sweep workload runs every Fig. 7/8 profile under the plain
// baseline and the five schemes, at a reduced instruction count.
const (
	sweepInsts = 50000 // simulated instructions per (profile, scheme) run
	warmInsts  = 2000  // instructions per set-up warm-up run

	// fullCoverage is "all of memory encrypted" for a time-averaged
	// percentage, allowing for rounding in the average.
	fullCoverage = 99.999
)

type sweep struct {
	insts    int64 // simulated instructions per (profile, scheme) run
	profiles []tgen.Profile
	schemes  []sim.SchemeFactory
	workers  int
}

// setupSweep is the workload's set-up: the profile and scheme line-up and
// a short warm-up simulation of every (profile, scheme) pair, so the first
// pass pays no lazy start-up.
func setupSweep(insts, seed int64, workers int) (*sweep, error) {
	s := &sweep{insts: insts, profiles: tgen.Profiles(), schemes: sim.Schemes(), workers: workers}
	for _, p := range s.profiles {
		for _, f := range s.factories() {
			if _, err := sim.Run(p, f.New(), warmInsts, seed); err != nil {
				return nil, fmt.Errorf("warm-up %s/%s: %w", p.Name, f.Name, err)
			}
		}
	}
	return s, nil
}

// factories is the plain baseline followed by the schemes: every run a
// profile gets in a pass.
func (s *sweep) factories() []sim.SchemeFactory {
	plain := sim.SchemeFactory{Name: "plain", New: func() mem.EncryptionEngine { return secure.NewPlain() }}
	return append([]sim.SchemeFactory{plain}, s.schemes...)
}

func (s *sweep) jobs() int { return len(s.profiles) * (len(s.schemes) + 1) }

// passInsts is the simulated instruction count of one pass.
func (s *sweep) passInsts() int64 { return int64(s.jobs()) * s.insts }

var (
	metaSweepPass = meta("bench", "sweep_pass")
	metaSweep     = meta("sim", "SweepParallel")
)

// pass runs the sweep once through sim.SweepParallel, checks the Fig. 7/8
// averages and returns the pass's wall time and rows (nil on error). seed
// drives every instruction stream.
func (s *sweep) pass(rep *report, seed int64, sp spanner) (time.Duration, []sim.Row) {
	root := sp.start(metaSweepPass)
	call := root.Context().Start(metaSweep)
	t0 := time.Now()
	rows, err := sim.SweepParallel(context.Background(), s.profiles, s.schemes, s.insts, seed, s.workers)
	d := time.Since(t0)
	call.End(int64(s.jobs()), 0)
	root.End(0, 0)
	if err != nil {
		for i := 0; i < s.jobs(); i++ {
			rep.op(err, "SweepParallel")
		}
		return d, nil
	}
	rep.attempted += int64(s.jobs())
	s.check(rep, rows)
	return d, rows
}

// check applies the Fig. 7/8 sanity rules: finite averages, AES and
// SPE-parallel keep all of memory encrypted, and the overheads order
// SPE-serial < SPE-parallel < AES.
func (s *sweep) check(rep *report, rows []sim.Row) {
	ov, enc := sim.Averages(rows, s.schemes)
	for _, sc := range s.schemes {
		rep.check(!math.IsNaN(ov[sc.Name]) && !math.IsInf(ov[sc.Name], 0), "%s overhead average %v is not finite", sc.Name, ov[sc.Name])
		rep.check(!math.IsNaN(enc[sc.Name]) && !math.IsInf(enc[sc.Name], 0), "%s encrypted average %v is not finite", sc.Name, enc[sc.Name])
	}
	for _, name := range []string{"AES", "SPE-parallel"} {
		rep.check(enc[name] >= fullCoverage, "%s keeps %.4f%% of memory encrypted, want 100%%", name, enc[name])
	}
	rep.check(ov["SPE-serial"] < ov["SPE-parallel"] && ov["SPE-parallel"] < ov["AES"],
		"overheads out of order: SPE-serial %.3f%%, SPE-parallel %.3f%%, AES %.3f%%",
		ov["SPE-serial"], ov["SPE-parallel"], ov["AES"])
}

// serialRuns is one pass done without SweepParallel: every (profile,
// scheme) run through sim.Run in turn, each in a span of rc. It returns
// the rows sim.Sweep builds from those runs, each run's time summed per
// scheme, and the simulated cycles summed over all runs.
func (s *sweep) serialRuns(rep *report, seed int64, rc trace.Context) (rows []sim.Row, runs map[string]time.Duration, cycles uint64) {
	runs = map[string]time.Duration{}
	for _, p := range s.profiles {
		row := sim.Row{Workload: p.Name, OverheadPct: map[string]float64{}, EncryptedPct: map[string]float64{}}
		var base sim.Result
		for i, f := range s.factories() {
			var r sim.Result
			var err error
			runs[f.Name] += timed(rc, metaSimRun, func() { r, err = sim.Run(p, f.New(), s.insts, seed) })
			if !rep.op(err, "sim.Run") {
				return nil, runs, cycles
			}
			cycles += r.Stats.Cycles
			if i == 0 {
				base, row.BaseIPC = r, r.IPC
				continue
			}
			row.OverheadPct[f.Name] = (base.IPC - r.IPC) / base.IPC * 100
			row.EncryptedPct[f.Name] = r.AvgEncrypted * 100
		}
		rows = append(rows, row)
	}
	return rows, runs, cycles
}

// sameRows checks that a parallel pass reproduced the serial runs' rows
// exactly: the simulation is deterministic, so any difference is a bug in
// the simulator or in how the sweep shares work between workers.
func sameRows(rep *report, serial, parallel []sim.Row) {
	if len(serial) != len(parallel) {
		rep.fail("SweepParallel returned %d rows, serial runs %d", len(parallel), len(serial))
		return
	}
	for i, want := range serial {
		got := parallel[i]
		rep.check(got.Workload == want.Workload && got.BaseIPC == want.BaseIPC,
			"row %d: SweepParallel %s IPC %v, serial %s IPC %v", i, got.Workload, got.BaseIPC, want.Workload, want.BaseIPC)
		for name, ov := range want.OverheadPct {
			rep.check(got.OverheadPct[name] == ov && got.EncryptedPct[name] == want.EncryptedPct[name],
				"%s/%s: SweepParallel overhead %v%% encrypted %v%%, serial %v%% and %v%%",
				want.Workload, name, got.OverheadPct[name], got.EncryptedPct[name], ov, want.EncryptedPct[name])
		}
	}
}
