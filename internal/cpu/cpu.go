// Package cpu is a trace-driven cycle-level model of the evaluation core
// (Section 7): a 3.2 GHz single-threaded 4-issue out-of-order processor.
// The model tracks true data dependencies through a reorder buffer, issue
// bandwidth per cycle, functional-unit latencies, a gshare branch predictor
// with redirect penalties, and a memory system callback for instruction
// fetches, loads and stores — the substitute for the Zesto simulator the
// paper used.
package cpu

import (
	"fmt"
	"math"
)

// OpType classifies trace instructions.
type OpType int

const (
	OpInt OpType = iota
	OpFp
	OpMul
	OpBranch
	OpLoad
	OpStore
)

func (o OpType) String() string {
	switch o {
	case OpInt:
		return "int"
	case OpFp:
		return "fp"
	case OpMul:
		return "mul"
	case OpBranch:
		return "branch"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	}
	return "?"
}

// Inst is one trace entry. Dep1/Dep2 give dependency distances: the
// instruction consumes the results of the instructions that many slots
// earlier (0 = no dependency).
type Inst struct {
	Op         OpType
	PC         uint64
	Addr       uint64 // data address for loads/stores
	Dep1, Dep2 int
	Taken      bool // branch outcome
}

// TraceReader supplies instructions. Next returns false at end of trace.
type TraceReader interface {
	Next() (Inst, bool)
}

// MemSystem abstracts the memory hierarchy (package mem implements it).
type MemSystem interface {
	LoadLatency(addr uint64, now uint64) uint64
	StoreAccess(addr uint64, now uint64) uint64
	FetchLatency(pc uint64, now uint64) uint64
	Tick(now uint64)
}

// Config sizes the core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int

	IntLatency, FpLatency, MulLatency int
	MispredictPenalty                 int

	// GshareBits sizes the branch predictor's history/table.
	GshareBits uint

	// FetchBytes is the fetch-group granularity used to decide when a new
	// I-cache access is needed.
	FetchBytes uint64

	// TickInterval is how often (in retired instructions) the memory
	// system's background Tick runs.
	TickInterval int64
}

// DefaultConfig is the paper's 4-issue core.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        4,
		IssueWidth:        4,
		CommitWidth:       4,
		ROBSize:           128,
		IntLatency:        1,
		FpLatency:         3,
		MulLatency:        4,
		MispredictPenalty: 12,
		GshareBits:        12,
		FetchBytes:        16,
		TickInterval:      1000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 || c.ROBSize <= 1 {
		return fmt.Errorf("cpu: nonpositive width/size in %+v", c)
	}
	if c.FetchWidth > maxWidth || c.IssueWidth > maxWidth || c.CommitWidth > maxWidth {
		return fmt.Errorf("cpu: fetch/issue/commit width above %d in %+v", maxWidth, c)
	}
	if c.IntLatency <= 0 || c.FpLatency <= 0 || c.MulLatency <= 0 || c.MispredictPenalty < 0 {
		return fmt.Errorf("cpu: invalid latencies in %+v", c)
	}
	if c.GshareBits == 0 || c.GshareBits > 24 || c.FetchBytes == 0 {
		return fmt.Errorf("cpu: invalid predictor/fetch config")
	}
	return nil
}

// Stats summarizes a simulation.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// gshare is a global-history XOR-indexed 2-bit counter predictor.
type gshare struct {
	history uint64
	table   []uint8
	mask    uint64
}

func newGshare(bits uint) *gshare {
	g := &gshare{table: make([]uint8, 1<<bits), mask: 1<<bits - 1}
	for i := range g.table {
		g.table[i] = 1 // weakly not-taken
	}
	return g
}

func (g *gshare) predict(pc uint64) bool {
	idx := (pc>>2 ^ g.history) & g.mask
	return g.table[idx] >= 2
}

func (g *gshare) update(pc uint64, taken bool) {
	idx := (pc>>2 ^ g.history) & g.mask
	if taken {
		if g.table[idx] < 3 {
			g.table[idx]++
		}
	} else if g.table[idx] > 0 {
		g.table[idx]--
	}
	g.history = g.history<<1 | b2u(taken)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// robEntry tracks one in-flight instruction's timing.
type robEntry struct {
	completion uint64 // cycle the result is available
	commit     uint64 // cycle the instruction commits
}

// maxWidth is the largest fetch, issue or commit width a ledger count holds.
const maxWidth = math.MaxUint8

// ledger books bandwidth slots per cycle. counts is a window of per-cycle
// booking counts starting at cycle base; keys lists every cycle that holds
// a booking, in or below the window, until a prune drops it. No booking
// starts below the floor its caller passes, so the window slides up to the
// floor and forgets the counts beneath it, while keys keeps those cycles
// so that the prune trigger sees how many cycles hold a booking.
type ledger struct {
	base   uint64
	counts []uint8
	keys   []uint64
}

// book finds the earliest cycle >= t with fewer than width bookings,
// books one slot there and returns it. Neither this nor any later book on
// the ledger starts below floor.
func (l *ledger) book(t, floor uint64, width int) uint64 {
	if floor > l.base && floor-l.base >= uint64(len(l.counts))/2 {
		l.slide(floor - l.base)
	}
	if t < l.base {
		panic(fmt.Sprintf("cpu: booking cycle %d below the ledger window base %d", t, l.base))
	}
	i := t - l.base
	for {
		if i >= uint64(len(l.counts)) {
			l.grow(i)
		}
		if int(l.counts[i]) < width {
			break
		}
		i++
	}
	if l.counts[i] == 0 {
		l.keys = append(l.keys, l.base+i)
	}
	l.counts[i]++
	return l.base + i
}

// slide moves the window base up by d cycles.
func (l *ledger) slide(d uint64) {
	if d >= uint64(len(l.counts)) {
		clear(l.counts)
	} else {
		n := copy(l.counts, l.counts[d:])
		clear(l.counts[n:])
	}
	l.base += d
}

// grow extends the window to hold index i.
func (l *ledger) grow(i uint64) {
	n := 2 * uint64(len(l.counts))
	if n <= i {
		n = i + 1
	}
	counts := make([]uint8, n)
	copy(counts, l.counts)
	l.counts = counts
}

// prune drops every booking at a cycle below before.
func (l *ledger) prune(before uint64) {
	kept := l.keys[:0]
	for _, k := range l.keys {
		if k >= before {
			kept = append(kept, k)
		} else if k >= l.base {
			l.counts[k-l.base] = 0
		}
	}
	l.keys = kept
}

// Core runs the timing model.
type Core struct {
	cfg  Config
	mem  MemSystem
	bp   *gshare
	stat Stats

	rob []robEntry

	fetchReady   uint64 // cycle the next fetch group can start
	lastFetchBlk uint64
	fetched      ledger // fetch-bandwidth accounting per cycle
	issued       ledger // issue-bandwidth accounting per cycle
	committed    ledger // commit-bandwidth accounting per cycle
	lastCommit   uint64
}

// New builds a core over a memory system.
func New(cfg Config, m MemSystem) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{
		cfg: cfg,
		mem: m,
		bp:  newGshare(cfg.GshareBits),
		rob: make([]robEntry, cfg.ROBSize),
		// Start fetch at cycle 1 so cycle 0 comparisons stay trivial.
		fetchReady:   1,
		lastFetchBlk: ^uint64(0),
	}, nil
}

// pruneLedgers drops bookings older than the commit horizon once any
// ledger holds 4*ROBSize booked cycles, bounding the key lists.
func (c *Core) pruneLedgers(commit uint64) {
	horizon := uint64(c.cfg.ROBSize * 4)
	if commit <= horizon {
		return
	}
	before := commit - horizon
	if len(c.issued.keys) < 4*c.cfg.ROBSize && len(c.committed.keys) < 4*c.cfg.ROBSize && len(c.fetched.keys) < 4*c.cfg.ROBSize {
		return
	}
	c.fetched.prune(before)
	c.issued.prune(before)
	c.committed.prune(before)
}

// Run simulates up to maxInsts instructions (or the whole trace if
// maxInsts <= 0) and returns the statistics.
func (c *Core) Run(tr TraceReader, maxInsts int64) Stats {
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

// step advances the model by one trace instruction.
func (c *Core) step(n int64, inst Inst) {
	slot := int(n % int64(c.cfg.ROBSize))

	// --- Allocate: wait for ROB space (the entry ROBSize back must have
	// committed) and fetch bandwidth.
	allocReady := c.fetchReady
	if n >= int64(c.cfg.ROBSize) {
		old := c.rob[slot]
		if old.commit+1 > allocReady {
			allocReady = old.commit + 1
		}
	}

	// --- Fetch: new I-cache access per fetch block.
	blk := inst.PC / c.cfg.FetchBytes
	if blk != c.lastFetchBlk {
		lat := c.mem.FetchLatency(inst.PC, allocReady)
		allocReady += lat - 1 // pipelined: hit latency mostly hidden
		c.lastFetchBlk = blk
	}
	allocReady = c.fetched.book(allocReady, c.fetchReady, c.cfg.FetchWidth)

	// --- Rename/dispatch at allocReady; ready when deps complete.
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

	// --- Issue: bounded by issue width per cycle.
	issue := c.issued.book(ready, c.fetchReady, c.cfg.IssueWidth)

	// --- Execute.
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
			// Redirect: fetch resumes after the branch resolves.
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
		// Stores commit through the store buffer; address check only.
		c.mem.StoreAccess(inst.Addr, issue)
		completion = issue + 1
	}

	// --- Commit: in order, bounded by commit width.
	commitAfter := completion
	if c.lastCommit > commitAfter {
		commitAfter = c.lastCommit
	}
	commit := c.committed.book(commitAfter, c.lastCommit, c.cfg.CommitWidth)
	c.lastCommit = commit
	c.rob[slot] = robEntry{completion: completion, commit: commit}

	// Fetch frontier advances at least with allocation.
	if allocReady > c.fetchReady {
		c.fetchReady = allocReady
	}
	c.pruneLedgers(commit)
}
