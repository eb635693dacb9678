package cpu

import (
	"testing"
)

// perfectMem answers every access in a fixed latency.
type perfectMem struct {
	loadLat, storeLat, fetchLat uint64
	loads, stores, fetches      int
	ticks                       int
}

func (m *perfectMem) LoadLatency(addr, now uint64) uint64 { m.loads++; return m.loadLat }
func (m *perfectMem) StoreAccess(addr, now uint64) uint64 { m.stores++; return m.storeLat }
func (m *perfectMem) FetchLatency(pc, now uint64) uint64  { m.fetches++; return m.fetchLat }
func (m *perfectMem) Tick(now uint64)                     { m.ticks++ }

// sliceTrace replays a fixed instruction slice.
type sliceTrace struct {
	insts []Inst
	pos   int
}

func (s *sliceTrace) Next() (Inst, bool) {
	if s.pos >= len(s.insts) {
		return Inst{}, false
	}
	i := s.insts[s.pos]
	s.pos++
	return i, true
}

// makeIndependent builds n independent single-cycle integer ops.
func makeIndependent(n int) []Inst {
	out := make([]Inst, n)
	for i := range out {
		out[i] = Inst{Op: OpInt, PC: uint64(0x1000 + 4*i)}
	}
	return out
}

func newTestCore(t *testing.T, m MemSystem) *Core {
	t.Helper()
	c, err := New(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.FetchWidth = maxWidth + 1 },
		func(c *Config) { c.IssueWidth = maxWidth + 1 },
		func(c *Config) { c.CommitWidth = maxWidth + 1 },
		func(c *Config) { c.ROBSize = 1 },
		func(c *Config) { c.IntLatency = 0 },
		func(c *Config) { c.MispredictPenalty = -1 },
		func(c *Config) { c.GshareBits = 0 },
		func(c *Config) { c.FetchBytes = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	wide := DefaultConfig()
	wide.FetchWidth, wide.IssueWidth, wide.CommitWidth = maxWidth, maxWidth, maxWidth
	if err := wide.Validate(); err != nil {
		t.Errorf("widths of %d rejected: %v", maxWidth, err)
	}
}

func TestIPCBoundedByIssueWidth(t *testing.T) {
	m := &perfectMem{loadLat: 4, storeLat: 4, fetchLat: 1}
	c := newTestCore(t, m)
	st := c.Run(&sliceTrace{insts: makeIndependent(20000)}, 0)
	ipc := st.IPC()
	if ipc > 4.01 {
		t.Errorf("IPC %g exceeds issue width 4", ipc)
	}
	if ipc < 3.0 {
		t.Errorf("IPC %g too low for independent int ops", ipc)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	m := &perfectMem{loadLat: 4, storeLat: 4, fetchLat: 1}
	c := newTestCore(t, m)
	insts := make([]Inst, 10000)
	for i := range insts {
		insts[i] = Inst{Op: OpInt, PC: uint64(0x1000 + 4*i), Dep1: 1}
	}
	st := c.Run(&sliceTrace{insts: insts}, 0)
	if ipc := st.IPC(); ipc > 1.05 {
		t.Errorf("serial chain IPC %g, want <= ~1", ipc)
	}
}

func TestMemoryLatencySensitivity(t *testing.T) {
	// The same load-heavy trace must slow down when memory is slower —
	// the property Fig. 7 depends on.
	mk := func() []Inst {
		insts := make([]Inst, 20000)
		for i := range insts {
			if i%4 == 0 {
				// Strided loads with a dependency on the loaded value.
				insts[i] = Inst{Op: OpLoad, PC: uint64(4 * i), Addr: uint64(i * 64)}
			} else {
				insts[i] = Inst{Op: OpInt, PC: uint64(4 * i), Dep1: i%3 + 1}
			}
		}
		return insts
	}
	fast := newTestCore(t, &perfectMem{loadLat: 4, fetchLat: 1})
	slow := newTestCore(t, &perfectMem{loadLat: 200, fetchLat: 1})
	fs := fast.Run(&sliceTrace{insts: mk()}, 0)
	ss := slow.Run(&sliceTrace{insts: mk()}, 0)
	if ss.IPC() >= fs.IPC() {
		t.Errorf("slow memory IPC %g >= fast %g", ss.IPC(), fs.IPC())
	}
	if fs.Loads == 0 || ss.Loads != fs.Loads {
		t.Errorf("load counts differ: %d vs %d", fs.Loads, ss.Loads)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	// A heavily-taken loop branch should be predicted well; alternating
	// random branches poorly.
	m := &perfectMem{fetchLat: 1}
	c := newTestCore(t, m)
	insts := make([]Inst, 20000)
	for i := range insts {
		insts[i] = Inst{Op: OpBranch, PC: 0x2000, Taken: true}
	}
	st := c.Run(&sliceTrace{insts: insts}, 0)
	if rate := float64(st.Mispredicts) / float64(st.Branches); rate > 0.01 {
		t.Errorf("always-taken mispredict rate %g", rate)
	}
}

func TestBranchMispredictCostsCycles(t *testing.T) {
	run := func(taken func(i int) bool) Stats {
		m := &perfectMem{fetchLat: 1}
		c := newTestCore(t, m)
		insts := make([]Inst, 30000)
		for i := range insts {
			if i%5 == 0 {
				insts[i] = Inst{Op: OpBranch, PC: uint64(0x100 + i%1024), Taken: taken(i)}
			} else {
				insts[i] = Inst{Op: OpInt, PC: uint64(4 * i)}
			}
		}
		return c.Run(&sliceTrace{insts: insts}, 0)
	}
	good := run(func(i int) bool { return true })
	// Pseudo-random outcomes defeat gshare.
	bad := run(func(i int) bool { return (i*2654435761)>>16&1 == 1 })
	if bad.IPC() >= good.IPC() {
		t.Errorf("unpredictable branches IPC %g >= predictable %g", bad.IPC(), good.IPC())
	}
	if bad.Mispredicts <= good.Mispredicts {
		t.Errorf("mispredicts %d <= %d", bad.Mispredicts, good.Mispredicts)
	}
}

func TestMaxInstsLimit(t *testing.T) {
	m := &perfectMem{fetchLat: 1}
	c := newTestCore(t, m)
	st := c.Run(&sliceTrace{insts: makeIndependent(1000)}, 100)
	if st.Instructions != 100 {
		t.Errorf("instructions = %d, want 100", st.Instructions)
	}
}

func TestStatsCounts(t *testing.T) {
	m := &perfectMem{fetchLat: 1, loadLat: 4, storeLat: 4}
	c := newTestCore(t, m)
	insts := []Inst{
		{Op: OpLoad, Addr: 0},
		{Op: OpStore, Addr: 64},
		{Op: OpBranch, Taken: true},
		{Op: OpFp},
		{Op: OpMul},
		{Op: OpInt},
	}
	st := c.Run(&sliceTrace{insts: insts}, 0)
	if st.Loads != 1 || st.Stores != 1 || st.Branches != 1 {
		t.Errorf("counts wrong: %+v", st)
	}
	if st.Instructions != 6 {
		t.Errorf("instructions = %d", st.Instructions)
	}
	if m.ticks != 0 { // TickInterval=1000 not reached
		t.Errorf("ticks = %d", m.ticks)
	}
}

func TestTickInterval(t *testing.T) {
	m := &perfectMem{fetchLat: 1}
	cfg := DefaultConfig()
	cfg.TickInterval = 10
	c, err := New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(&sliceTrace{insts: makeIndependent(100)}, 0)
	if m.ticks != 10 {
		t.Errorf("ticks = %d, want 10", m.ticks)
	}
}

func TestCyclesMonotone(t *testing.T) {
	// More instructions, more cycles.
	m := &perfectMem{fetchLat: 1}
	c1 := newTestCore(t, m)
	s1 := c1.Run(&sliceTrace{insts: makeIndependent(1000)}, 0)
	c2 := newTestCore(t, &perfectMem{fetchLat: 1})
	s2 := c2.Run(&sliceTrace{insts: makeIndependent(5000)}, 0)
	if s2.Cycles <= s1.Cycles {
		t.Errorf("cycles %d <= %d", s2.Cycles, s1.Cycles)
	}
}

func TestOpTypeString(t *testing.T) {
	for op, want := range map[OpType]string{
		OpInt: "int", OpFp: "fp", OpMul: "mul", OpBranch: "branch",
		OpLoad: "load", OpStore: "store",
	} {
		if op.String() != want {
			t.Errorf("OpType %d = %q", op, op.String())
		}
	}
}
