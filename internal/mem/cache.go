// Package mem models the memory hierarchy of the evaluation platform
// (Section 7): split 32 KB 8-way L1 instruction/data caches with 4-cycle
// latency, a shared 2 MB 16-way L2 with 16-cycle latency, 64-byte lines,
// LRU replacement, write-back/write-allocate policy, and a banked
// memristor NVMM behind a memory controller. An encryption engine hooks
// the NVMM interface and adds scheme-specific latency (package secure).
package mem

import "fmt"

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes    int
	Ways         int
	LineBytes    int
	LatencyCycle int
}

// Validate checks the geometry.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: nonpositive cache geometry %+v", c)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("mem: size %d not divisible by ways*line", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: set count %d not a power of two", sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: line size %d not a power of two", c.LineBytes)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-use stamp
}

// Cache is one set-associative write-back cache level. Set s occupies
// lines[s*ways : (s+1)*ways] of one flat, pointer-free array.
type Cache struct {
	cfg     CacheConfig
	lines   []line
	ways    uint64
	setMask uint64
	shift   uint
	stamp   uint64

	Hits, Misses, Writebacks uint64
}

// NewCache builds a cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:     cfg,
		lines:   make([]line, nsets*cfg.Ways),
		ways:    uint64(cfg.Ways),
		setMask: uint64(nsets - 1),
		shift:   shift,
	}, nil
}

// Latency returns the access latency in cycles.
func (c *Cache) Latency() int { return c.cfg.LatencyCycle }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// AccessResult describes one cache access.
type AccessResult struct {
	Hit       bool
	Writeback bool   // a dirty victim was evicted
	WBAddr    uint64 // line address of the written-back victim
}

// Access looks up addr, allocating on miss (write-allocate). write marks
// the line dirty. The result reports a dirty eviction if one occurred.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.stamp++
	setIdx := (addr >> c.shift) & c.setMask
	tag := addr >> c.shift
	set := c.lines[setIdx*c.ways : (setIdx+1)*c.ways]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Hits++
			set[i].lru = c.stamp
			if write {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.Misses++
	// Choose victim: invalid first, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	res := AccessResult{}
	if set[victim].valid && set[victim].dirty {
		res.Writeback = true
		res.WBAddr = set[victim].tag << c.shift
		c.Writebacks++
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.stamp}
	return res
}

// Flush returns the addresses of all dirty lines and clears the cache —
// the power-down writeback of Section 6.4.
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.dirty {
			dirty = append(dirty, l.tag<<c.shift)
		}
		*l = line{}
	}
	return dirty
}

// DirtyLines counts dirty lines currently resident.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, l := range c.lines {
		if l.valid && l.dirty {
			n++
		}
	}
	return n
}

// MissRate returns misses/(hits+misses).
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
