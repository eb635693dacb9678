package cpu

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// mapCore is the core as first written, with each bandwidth ledger a
// map[uint64]int from cycle to bookings. It is the oracle the
// slice-backed ledgers must match cycle for cycle.
type mapCore struct {
	cfg  Config
	mem  MemSystem
	bp   *gshare
	stat Stats

	rob []robEntry

	fetchReady   uint64
	lastFetchBlk uint64
	fetched      map[uint64]int
	issued       map[uint64]int
	committed    map[uint64]int
	lastCommit   uint64
}

func newMapCore(cfg Config, m MemSystem) *mapCore {
	return &mapCore{
		cfg:          cfg,
		mem:          m,
		bp:           newGshare(cfg.GshareBits),
		rob:          make([]robEntry, cfg.ROBSize),
		fetched:      make(map[uint64]int),
		issued:       make(map[uint64]int),
		committed:    make(map[uint64]int),
		fetchReady:   1,
		lastFetchBlk: ^uint64(0),
	}
}

func slotWithBandwidth(m map[uint64]int, t uint64, width int) uint64 {
	for {
		if m[t] < width {
			m[t]++
			return t
		}
		t++
	}
}

func (c *mapCore) pruneBandwidthMaps(commit uint64) {
	horizon := uint64(c.cfg.ROBSize * 4)
	if commit <= horizon {
		return
	}
	before := commit - horizon
	if len(c.issued) < 4*c.cfg.ROBSize && len(c.committed) < 4*c.cfg.ROBSize && len(c.fetched) < 4*c.cfg.ROBSize {
		return
	}
	for _, m := range []map[uint64]int{c.fetched, c.issued, c.committed} {
		for k := range m {
			if k < before {
				delete(m, k)
			}
		}
	}
}

func (c *mapCore) Run(tr TraceReader, maxInsts int64) Stats {
	var n int64
	for {
		if maxInsts > 0 && n >= maxInsts {
			break
		}
		inst, ok := tr.Next()
		if !ok {
			break
		}
		c.step(n, inst)
		n++
		if c.cfg.TickInterval > 0 && n%c.cfg.TickInterval == 0 {
			c.mem.Tick(c.lastCommit)
		}
	}
	c.stat.Instructions = uint64(n)
	c.stat.Cycles = c.lastCommit
	return c.stat
}

func (c *mapCore) step(n int64, inst Inst) {
	slot := int(n % int64(c.cfg.ROBSize))
	allocReady := c.fetchReady
	if n >= int64(c.cfg.ROBSize) {
		old := c.rob[slot]
		if old.commit+1 > allocReady {
			allocReady = old.commit + 1
		}
	}
	blk := inst.PC / c.cfg.FetchBytes
	if blk != c.lastFetchBlk {
		lat := c.mem.FetchLatency(inst.PC, allocReady)
		allocReady += lat - 1
		c.lastFetchBlk = blk
	}
	allocReady = slotWithBandwidth(c.fetched, allocReady, c.cfg.FetchWidth)
	ready := allocReady
	for _, d := range []int{inst.Dep1, inst.Dep2} {
		if d <= 0 || int64(d) > n || d >= c.cfg.ROBSize {
			continue
		}
		depSlot := int((n - int64(d)) % int64(c.cfg.ROBSize))
		if dep := c.rob[depSlot].completion; dep > ready {
			ready = dep
		}
	}
	issue := slotWithBandwidth(c.issued, ready, c.cfg.IssueWidth)
	var completion uint64
	switch inst.Op {
	case OpInt:
		completion = issue + uint64(c.cfg.IntLatency)
	case OpFp:
		completion = issue + uint64(c.cfg.FpLatency)
	case OpMul:
		completion = issue + uint64(c.cfg.MulLatency)
	case OpBranch:
		completion = issue + uint64(c.cfg.IntLatency)
		c.stat.Branches++
		pred := c.bp.predict(inst.PC)
		c.bp.update(inst.PC, inst.Taken)
		if pred != inst.Taken {
			c.stat.Mispredicts++
			redirect := completion + uint64(c.cfg.MispredictPenalty)
			if redirect > c.fetchReady {
				c.fetchReady = redirect
			}
			c.lastFetchBlk = ^uint64(0)
		}
	case OpLoad:
		c.stat.Loads++
		completion = issue + c.mem.LoadLatency(inst.Addr, issue)
	case OpStore:
		c.stat.Stores++
		c.mem.StoreAccess(inst.Addr, issue)
		completion = issue + 1
	}
	commitAfter := completion
	if c.lastCommit > commitAfter {
		commitAfter = c.lastCommit
	}
	commit := slotWithBandwidth(c.committed, commitAfter, c.cfg.CommitWidth)
	c.lastCommit = commit
	c.rob[slot] = robEntry{completion: completion, commit: commit}
	if allocReady > c.fetchReady {
		c.fetchReady = allocReady
	}
	c.pruneBandwidthMaps(commit)
}

// memCall is one MemSystem call as a core made it.
type memCall struct {
	kind byte // 'L'oad, 'S'tore, 'F'etch, 'T'ick
	addr uint64
	now  uint64
}

// spikyMem answers with seeded latencies of 1-20 cycles and rare spikes up
// to 30000, and logs every call. A spike leaves commit far ahead of fetch,
// so prunes drop bookings that later fetch and issue queries reach.
type spikyMem struct {
	rng   *rand.Rand
	calls []memCall
}

func (m *spikyMem) latency() uint64 {
	if m.rng.Intn(200) == 0 {
		return 1 + uint64(m.rng.Intn(30000))
	}
	return 1 + uint64(m.rng.Intn(20))
}

func (m *spikyMem) LoadLatency(addr, now uint64) uint64 {
	m.calls = append(m.calls, memCall{'L', addr, now})
	return m.latency()
}

func (m *spikyMem) StoreAccess(addr, now uint64) uint64 {
	m.calls = append(m.calls, memCall{'S', addr, now})
	return m.latency()
}

func (m *spikyMem) FetchLatency(pc, now uint64) uint64 {
	m.calls = append(m.calls, memCall{'F', pc, now})
	return m.latency()
}

func (m *spikyMem) Tick(now uint64) { m.calls = append(m.calls, memCall{'T', 0, now}) }

// randomTrace draws n instructions with every op kind, short and long
// dependency distances and a mix of sequential and jumping PCs.
func randomTrace(rng *rand.Rand, n int) []Inst {
	insts := make([]Inst, n)
	pc := uint64(0x1000)
	for i := range insts {
		if rng.Intn(8) == 0 {
			pc = uint64(rng.Intn(1 << 16))
		} else {
			pc += 4
		}
		in := Inst{Op: OpType(rng.Intn(6)), PC: pc, Taken: rng.Intn(3) != 0}
		if in.Op == OpLoad || in.Op == OpStore {
			in.Addr = uint64(rng.Intn(1 << 20))
		}
		if rng.Intn(2) == 0 {
			in.Dep1 = 1 + rng.Intn(64)
		}
		if rng.Intn(4) == 0 {
			in.Dep2 = 1 + rng.Intn(8)
		}
		insts[i] = in
	}
	return insts
}

func randomConfig(rng *rand.Rand) Config {
	cfg := DefaultConfig()
	cfg.ROBSize = 8 + rng.Intn(50)
	cfg.FetchWidth = 1 + rng.Intn(5)
	cfg.IssueWidth = 1 + rng.Intn(5)
	cfg.CommitWidth = 1 + rng.Intn(5)
	cfg.IntLatency = 1 + rng.Intn(3)
	cfg.FpLatency = 1 + rng.Intn(6)
	cfg.MulLatency = 1 + rng.Intn(8)
	cfg.MispredictPenalty = rng.Intn(20)
	cfg.GshareBits = uint(4 + rng.Intn(9))
	cfg.FetchBytes = uint64(4 << rng.Intn(4))
	cfg.TickInterval = int64(rng.Intn(300))
	return cfg
}

func TestLedgerCoreMatchesMapCore(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cases, insts := 60, 20000
	if testing.Short() {
		cases = 15
	}
	for i := 0; i < cases; i++ {
		cfg := DefaultConfig()
		if i%3 != 0 {
			cfg = randomConfig(rng)
		}
		trace := randomTrace(rng, insts)
		memSeed := rng.Int63()

		refMem := &spikyMem{rng: rand.New(rand.NewSource(memSeed))}
		want := newMapCore(cfg, refMem).Run(&sliceTrace{insts: trace}, 0)
		gotMem := &spikyMem{rng: rand.New(rand.NewSource(memSeed))}
		c, err := New(cfg, gotMem)
		if err != nil {
			t.Fatal(err)
		}
		got := c.Run(&sliceTrace{insts: trace}, 0)

		if got != want {
			t.Fatalf("case %d (%+v): stats %+v, map core %+v", i, cfg, got, want)
		}
		if !reflect.DeepEqual(gotMem.calls, refMem.calls) {
			for j := range refMem.calls {
				if j >= len(gotMem.calls) || gotMem.calls[j] != refMem.calls[j] {
					t.Fatalf("case %d (%+v): memory call %d differs", i, cfg, j)
				}
			}
			t.Fatalf("case %d (%+v): %d memory calls, map core %d", i, cfg, len(gotMem.calls), len(refMem.calls))
		}
	}
}

func TestLedgerWarmBookAllocatesNothing(t *testing.T) {
	var l ledger
	t0 := uint64(1)
	run := func() {
		for i := 0; i < 64; i++ {
			t0 = l.book(t0+uint64(i%3), t0, 2)
		}
		if len(l.keys) >= 256 {
			l.prune(t0 - 64)
		}
	}
	for i := 0; i < 100; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("warm book allocates %v times per 64 bookings", allocs)
	}
}

func TestLedgerBookBelowBasePanics(t *testing.T) {
	var l ledger
	l.book(100, 100, 1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "below the ledger window base") {
			t.Errorf("panic = %q, want a below-base message", msg)
		}
	}()
	l.book(50, 100, 1)
}
