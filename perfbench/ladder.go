package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"snvmm/internal/circuit"
	"snvmm/internal/core"
	"snvmm/internal/device"
	"snvmm/internal/linalg"
	"snvmm/internal/nist"
	"snvmm/internal/numeric"
	"snvmm/internal/poe"
	"snvmm/internal/prng"
	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
	tgen "snvmm/internal/trace"
	"snvmm/internal/xbar"
)

// The ladder times public calls into each layer on the workload's own
// inputs, inside spans, for the traced run. Every probe runs in every
// traced run, so each traced run reports the whole per-layer table.

// ladderLoop is the request count of the store probe's closed loop.
const ladderLoop = 3000

var (
	metaProbeStore  = meta("bench", "probe.store")
	metaProbeTables = meta("bench", "probe.tables")
	metaProbeSweep  = meta("bench", "probe.sweep")
	metaSetup       = meta("bench", "setup")
	metaNewEngine   = meta("core", "NewEngine")
	metaNewBlock    = meta("core", "Engine.NewBlock")
	metaBlockEnc    = meta("core", "Block.Encrypt")
	metaBlockDec    = meta("core", "Block.Decrypt")
	metaWriteBlock  = meta("xbar", "Crossbar.WriteBlock")
	metaReadBlock   = meta("xbar", "Crossbar.ReadBlock")
	metaPulse       = meta("xbar", "Crossbar.ApplyPulse")
	metaCalibrate   = meta("xbar", "CalibrationFor+WarmAll")
	metaSchedule    = meta("prng", "DeriveSchedule")
	metaNistTest    = meta("nist", "test")
	metaSimRun      = meta("sim", "Run")
	metaGenDrain    = meta("trace", "Generator.Next")
)

// perCall times n back-to-back calls of f, reps times, and returns the
// median per-call time in µs; for calls too short to time one at a time.
func perCall(rc trace.Context, m *trace.SpanMeta, reps, n int, f func(i int)) float64 {
	var s samples
	for r := 0; r < reps; r++ {
		d := timed(rc, m, func() {
			for i := 0; i < n; i++ {
				f(r*n + i)
			}
		})
		s.add(d/time.Duration(n), time.Microsecond)
	}
	return percentile(s.sorted(), 50)
}

func ladder(rep *report, seed int64, workers int, tr *trace.Tracer) {
	storeProbe(rep, seed, workers, tr)
	tablesProbe(rep, seed, tr)
	sweepProbe(rep, seed, workers, tr)
}

// storeProbe covers the block-store path: placement solve, device power-on
// and a closed loop with allocation and GC accounting, then the layers
// under one block read: block crypt, crossbar access, pulse kernel and
// PRNG schedule.
func storeProbe(rep *report, seed int64, workers int, tr *trace.Tracer) {
	root := tr.Root(metaProbeStore)
	defer root.End(0, 0)
	rc := root.Context()
	cfg := xbar.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))

	var solve samples
	for i := 0; i < 3; i++ {
		solve.add(timed(rc, metaSolve, func() {
			_, err := poe.Solve(poe.Spec{Cfg: cfg, S: core.DefaultSecuritySlack})
			rep.op(err, "poe.Solve")
		}), time.Millisecond)
	}
	rep.set("poe.solve_ms", percentile(solve.sorted(), 50), "ms")

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	setup := rc.Start(metaSetup)
	s, err := openStore(storeDefault, seed, workers, rep, setup.Context())
	setup.End(0, 0)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	defer s.close()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	rep.set("store.heap_bytes_per_block", float64(int64(ms1.HeapInuse)-int64(ms0.HeapInuse))/float64(s.cfg.blocks), "B")

	var on samples
	for i := 0; i < 5; i++ {
		if !rep.op(s.dev.PowerOff(), "PowerOff") {
			return
		}
		on.add(timed(rc, metaPowerOn, func() { rep.op(s.dev.PowerOn(), "PowerOn") }), time.Millisecond)
	}
	rep.set("snvmm.power_on_ms", percentile(on.sorted(), 50), "ms")

	var st storeStats
	c0 := readCPUClock()
	runtime.ReadMemStats(&ms0)
	s.run(rep, &st, spanner{parent: rc}, func(n int, _ time.Duration) bool { return n >= ladderLoop })
	runtime.ReadMemStats(&ms1)
	rep.set("store.gc_cpu_frac", readCPUClock().gcFracSince(c0), "frac")
	rep.set("store.allocs_per_block", float64(ms1.Mallocs-ms0.Mallocs)/float64(st.blocks), "count")
	rep.set("store.alloc_bytes_per_block", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(st.blocks), "B")
	readP50 := percentile(st.read.sorted(), 50)
	writeP50 := percentile(st.write.sorted(), 50)
	batchOps := float64(s.cfg.batchOps)
	rep.set("store.batch_speedup_read", batchOps*readP50/(1000*percentile(st.batchRead.sorted(), 50)), "x")
	rep.set("store.batch_speedup_write", batchOps*writeP50/(1000*percentile(st.batchWrite.sorted(), 50)), "x")

	var eng *core.Engine
	timed(rc, metaNewEngine, func() {
		var err error
		eng, err = core.NewEngine(core.DefaultParams())
		rep.op(err, "core.NewEngine")
	})
	if eng == nil {
		return
	}
	var nb samples
	for i := 0; i < 200; i++ {
		nb.add(timed(rc, metaNewBlock, func() {
			_, err := eng.NewBlock(int64(i))
			rep.op(err, "NewBlock")
		}), time.Microsecond)
	}
	rep.set("core.new_block_us", percentile(nb.sorted(), 50), "us")

	b, err := eng.NewBlock(seed)
	if !rep.op(err, "NewBlock") {
		return
	}
	var enc, dec samples
	pt := make([]byte, core.BlockSize)
	for i := 0; i < 300; i++ {
		rng.Read(pt)
		key := prng.NewKey(rng.Uint64(), rng.Uint64())
		tweak := addrOf(rng.Intn(s.cfg.blocks))
		if !rep.op(b.WritePlain(pt), "Block.WritePlain") {
			return
		}
		enc.add(timed(rc, metaBlockEnc, func() { rep.op(b.Encrypt(key, tweak), "Block.Encrypt") }), time.Microsecond)
		dec.add(timed(rc, metaBlockDec, func() { rep.op(b.Decrypt(key, tweak), "Block.Decrypt") }), time.Microsecond)
		got, err := b.ReadPlain()
		if rep.op(err, "Block.ReadPlain") {
			rep.check(bytes.Equal(got, pt), "block round trip returned %x…, want %x…", prefix(got), prefix(pt))
		}
	}
	encP50, decP50 := percentile(enc.sorted(), 50), percentile(dec.sorted(), 50)
	rep.set("core.block_encrypt_us", encP50, "us")
	rep.set("core.block_decrypt_us", decP50, "us")
	// A parallel-mode read is decrypt + sense + re-encrypt; what the crypt
	// ladder does not cover is SPECU and dispatch overhead.
	rep.set("store.ladder_coverage", (encP50+decP50)/readP50, "frac")
	rep.set("store.ladder_gap_us", readP50-(encP50+decP50), "us")

	xcfg := cfg
	xcfg.Seed = seed
	x, err := xbar.New(xcfg)
	if !rep.op(err, "xbar.New") {
		return
	}
	cal, err := xbar.CalibrationFor(x)
	if !rep.op(err, "CalibrationFor") {
		return
	}
	data := make([][]byte, 64)
	for i := range data {
		data[i] = make([]byte, x.BlockBytes())
		rng.Read(data[i])
	}
	rep.set("xbar.write_block_us", perCall(rc, metaWriteBlock, 200, 100, func(i int) {
		rep.op(x.WriteBlock(data[i%len(data)]), "WriteBlock")
	}), "us")
	rep.set("xbar.read_block_us", perCall(rc, metaReadBlock, 200, 100, func(int) { x.ReadBlock() }), "us")

	var warm, cold samples
	for r := 0; r < 200; r++ {
		sched := prng.DeriveSchedule(prng.NewKey(rng.Uint64(), rng.Uint64()), len(eng.Placement), device.NumPulses)
		rep.op(x.WriteBlock(data[r%len(data)]), "WriteBlock")
		for step, k := range sched.Order {
			d := timed(rc, metaPulse, func() { rep.op(x.ApplyPulse(cal, eng.Placement[k], sched.Classes[step]), "ApplyPulse") })
			if step == 0 {
				cold.add(d, time.Microsecond)
			}
		}
		for step, k := range sched.Order {
			warm.add(timed(rc, metaPulse, func() { rep.op(x.ApplyPulse(cal, eng.Placement[k], sched.Classes[step]), "ApplyPulse") }), time.Microsecond)
		}
	}
	rep.set("xbar.pulse_warm_us", percentile(warm.sorted(), 50), "us")
	rep.set("xbar.pulse_after_write_us", percentile(cold.sorted(), 50), "us")

	keys := make([]prng.Key, 256)
	for i := range keys {
		keys[i] = prng.NewKey(rng.Uint64(), rng.Uint64())
	}
	rep.set("prng.schedule_us", perCall(rc, metaSchedule, 200, 100, func(i int) {
		prng.DeriveSchedule(keys[i%len(keys)], len(eng.Placement), device.NumPulses)
	}), "us")
}

// nistTests are the fifteen suite tests, called as nist.Suite calls them.
var nistTests = []func([]uint8) nist.Result{
	nist.Frequency,
	func(b []uint8) nist.Result { return nist.BlockFrequency(b, 128) },
	nist.Runs,
	nist.LongestRunOfOnes,
	nist.BinaryMatrixRank,
	nist.DFT,
	func(b []uint8) nist.Result { return nist.NonOverlappingTemplate(b, numeric.AperiodicTemplates(9)[0]) },
	nist.OverlappingTemplate,
	nist.MaurerUniversal,
	nist.LinearComplexity,
	func(b []uint8) nist.Result { return nist.Serial(b, 5) },
	func(b []uint8) nist.Result { return nist.ApproximateEntropy(b, 5) },
	nist.CumulativeSums,
	nist.RandomExcursions,
	nist.RandomExcursionsVariant,
}

// calDevices is how many varied devices the cold-calibration probe builds.
const calDevices = 4

// tablesProbe covers the reproduction path: one traced paper-tables pass
// broken down by layer, each NIST test on the pass's own sequences, cold
// characterization of varied devices with the solver counters, and the
// warm cipher.
func tablesProbe(rep *report, seed int64, tr *trace.Tracer) {
	root := tr.Root(metaProbeTables)
	defer root.End(0, 0)
	rc := root.Context()
	var t *tables
	timed(rc, metaSetup, func() {
		var err error
		t, err = setupTables(tablesDefault)
		rep.checkErr(err)
	})
	if t == nil {
		return
	}
	p := t.pass(rep, seed, spanner{parent: rc})
	rep.set("poe.table1_ms", p.table1.Seconds()*1000, "ms")
	rep.set("nist.build_hw_avalanche_s", p.buildHW.Seconds(), "s")
	rep.set("nist.build_other_s", p.buildRest.Seconds(), "s")
	rep.set("nist.suite_s", p.suite.Seconds(), "s")
	parts := p.table1 + p.buildHW + p.buildRest + p.suite + p.cipher
	rep.set("tables.layer_gap_frac", 1-parts.Seconds()/p.wall.Seconds(), "frac")

	for _, test := range nistTests {
		var total time.Duration
		var name string
		for _, seq := range p.seqs {
			total += timed(rc, metaNistTest, func() { name = test(seq).Name })
		}
		rep.set("nist.test."+name+"_ms", total.Seconds()*1000, "ms")
	}

	reg := telemetry.New()
	xbar.SetTelemetry(reg)
	circuit.SetTelemetry(reg)
	linalg.SetTelemetry(reg)
	var cal samples
	for i := 0; i < calDevices; i++ {
		cfg := xbar.DefaultConfig()
		step := (seed + int64(i)) % 11
		if step < 0 {
			step += 11
		}
		cfg.VarFrac = 0.05 + 0.005*float64(step) // 5% .. 10% in 0.5% steps, as Table 2's h/w set
		cfg.Seed = seed*131 + int64(i)
		x, err := xbar.New(cfg)
		if !rep.op(err, "xbar.New") {
			continue
		}
		cal.add(timed(rc, metaCalibrate, func() {
			c, err := xbar.CalibrationFor(x)
			if rep.op(err, "CalibrationFor") {
				rep.op(c.WarmAll(context.Background(), 1), "WarmAll")
			}
		}), time.Millisecond)
	}
	xbar.SetTelemetry(nil)
	circuit.SetTelemetry(nil)
	linalg.SetTelemetry(nil)
	rep.set("xbar.cold_calibration_ms", percentile(cal.sorted(), 50), "ms")
	for _, name := range []string{"xbar.cal.builds", "circuit.factor_systems", "linalg.cg.solves"} {
		rep.set(name, float64(reg.Counter(name).Load())/calDevices, "count")
	}

	rng := rand.New(rand.NewSource(seed))
	c, err := core.NewCipher(t.eng, seed)
	if !rep.op(err, "NewCipher") {
		return
	}
	key := prng.NewKey(rng.Uint64(), rng.Uint64())
	pt := make([]byte, c.BlockBytes())
	var enc samples
	for i := 0; i < 300; i++ {
		rng.Read(pt)
		enc.add(timed(rc, metaCipherEnc, func() {
			_, err := c.Encrypt(key, pt)
			rep.op(err, "Cipher.Encrypt")
		}), time.Microsecond)
	}
	rep.set("core.cipher_encrypt_us", percentile(enc.sorted(), 50), "us")
}

// schemeMetric names a scheme in metric names: "plain", "aes", "i-nvmm" …
func schemeMetric(name string) string { return "sim.run_s." + strings.ToLower(name) }

// sweepProbe covers the simulator: every (profile, scheme) run serially
// through sim.Run, the trace generator drained alone, and one parallel
// pass for worker utilization.
func sweepProbe(rep *report, seed int64, workers int, tr *trace.Tracer) {
	root := tr.Root(metaProbeSweep)
	defer root.End(0, 0)
	rc := root.Context()
	var s *sweep
	timed(rc, metaSetup, func() {
		var err error
		s, err = setupSweep(sweepInsts, seed, workers)
		rep.checkErr(err)
	})
	if s == nil {
		return
	}
	serial, runs, cycles := s.serialRuns(rep, seed, rc)
	var busy time.Duration
	for _, f := range s.factories() {
		rep.set(schemeMetric(f.Name), runs[f.Name].Seconds(), "s")
		busy += runs[f.Name]
	}
	// A count, not a timing: it repeats exactly for a seed, and the
	// serial runs must match the parallel pass below row for row.
	rep.set("sim.cycles_total", float64(cycles), "count")

	var gen time.Duration
	for _, p := range s.profiles {
		g, err := tgen.NewGenerator(p, seed)
		if !rep.op(err, "NewGenerator") {
			continue
		}
		gen += timed(rc, metaGenDrain, func() {
			for i := int64(0); i < s.insts; i++ {
				g.Next()
			}
		})
	}
	rep.set("trace.gen_ns_per_inst", float64(gen.Nanoseconds())/float64(s.insts*int64(len(s.profiles))), "ns")

	wall, rows := s.pass(rep, seed, spanner{parent: rc})
	if serial != nil && rows != nil {
		sameRows(rep, serial, rows)
	}
	rep.set("sim.worker_busy_frac", busy.Seconds()/(wall.Seconds()*float64(s.workers)), "frac")
}
