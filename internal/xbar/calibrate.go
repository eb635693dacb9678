package xbar

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Calibration holds the per-PoE data the SPECU characterizes once per
// fabrication identity: the polyomino shape, the baseline sneak voltage of
// each shape cell at the mid state, and the linearized sensitivity of that
// voltage to the state of every cell outside the polyomino. Every PoE is
// characterized from one shared factorization of the device's sneak
// network (see calibrate_sparse.go); the pulse path reads the resulting
// voltage through Mixers.
//
// During a pulse the voltage across a polyomino cell is modelled as
//
//	v = base + sum_m w[m] * (x_m - 0.5)    (m ranges over complement cells)
//
// where x_m is the state of complement cell m. Because the complement of a
// polyomino is untouched by its own pulse, this quantity is bit-identical
// when the pulse is undone during decryption, which makes the quantized
// encryption exactly invertible while remaining data- and
// hardware-dependent (Section 6.1's avalanche experiments).
//
// The sensitivities are quantized at calibration time to the fixed-point
// grid 2^-devWeightBits (the comparator bank that reads them out has finite
// resolution anyway). With (x_m - 0.5) = (2*level - 3)/8, every deviation
// is then an exact int64 sum of weight*(2*level-3) terms — an
// order-independent quantity that an incremental accumulator can maintain
// under single-cell updates with bit-for-bit agreement against a
// from-scratch recompute. Invertibility depends on that exactness; see
// TestIncrementalDeviationsMatchScratch.
//
// A Calibration is safe for concurrent readers: per-PoE records are built
// lazily under a per-PoE sync.Once, so concurrent pipeline workers
// first-touching the same PoE calibrate it exactly once and everyone else
// blocks until the record is ready.
type Calibration struct {
	cfg Config
	xb  *Crossbar // reference crossbar used for solves (nominal state)

	poes []poeCal // per PoE (linear cell index)

	sk calSketch // shared device sketch, built lazily

	// forceHier selects the hierarchical sketch backend at any device
	// size. Only in-package tests set it, to cross-validate that backend
	// on devices small enough for the dense tables.
	forceHier bool
}

// poeCal is the lazily built calibration record of one PoE.
type poeCal struct {
	once sync.Once
	err  error

	// started/done bracket the build for singleflight-wait accounting:
	// a caller seeing started && !done is about to block inside once.Do
	// behind another goroutine's build. Purely observational — the Once
	// remains the synchronization.
	started atomic.Bool
	done    atomic.Bool

	shape   []Cell
	inShape []bool
	base    []float64

	// Quantized sensitivity kernel: compIdx lists the complement cells
	// (ascending) that any shape cell is sensitive to; compPos inverts it
	// (cell index -> position in compIdx, or -1); wflat[k] is the flat
	// int64 weight row of shape cell k, aligned with compIdx.
	compIdx []int32
	compPos []int32
	wflat   [][]int64
}

// devWeightBits is the fixed-point precision of the quantized sensitivity
// weights: weights are integer multiples of 2^-devWeightBits.
const devWeightBits = 40

// devInvScale converts an int64 deviation accumulator to volts: the weight
// grid contributes 2^-devWeightBits and the level term (2l-3)/8 another
// 2^-3.
const devInvScale = 0x1p-43

// levelQ returns the integer level coordinate q = 2l-3, the exact numerator
// of LevelCenter(l) - 0.5 = (2l-3)/8 for MLC-2.
func levelQ(l int) int64 { return int64(2*l - 3) }

// Calibrate builds an empty calibration bound to the crossbar's geometry
// and fabrication variation. Per-PoE data is computed lazily on first use.
// For unvaried (VarFrac == 0) configurations, prefer CalibrationFor, which
// shares one calibration per fabrication identity across the process.
func Calibrate(x *Crossbar) *Calibration {
	return &Calibration{
		cfg:  x.Cfg,
		xb:   x,
		poes: make([]poeCal, x.Cfg.Cells()),
	}
}

// sensDelta is the state perturbation used for the finite-difference
// sensitivity extraction.
const sensDelta = 0.25

// ensure computes the calibration record for one PoE, exactly once even
// under concurrent first touch.
func (c *Calibration) ensure(poe Cell) error {
	if !c.cfg.InBounds(poe) {
		return fmt.Errorf("xbar: PoE %+v out of bounds", poe)
	}
	pc := &c.poes[c.cfg.Index(poe)]
	if t := xtel.Load(); t != nil && !pc.done.Load() {
		// Whoever flips started owns the build; everyone else arriving
		// before done is a singleflight waiter (an approximation — a racer
		// landing in the build/done gap may be counted without blocking).
		if pc.started.Swap(true) {
			t.sfWaits.Inc()
		} else {
			t.builds.Inc()
		}
	}
	pc.once.Do(func() { pc.err = c.buildSketch(poe, pc) })
	pc.done.Store(true)
	return pc.err
}

// flattenSensitivities compacts a dense per-shape-cell weight table into
// the calibration's sparse layout: complement cells that at least one shape
// cell is sensitive to, in ascending order (compIdx), the inverse map
// (compPos, -1 where absent), and per-shape-cell weight rows aligned with
// compIdx.
func flattenSensitivities(cells int, inShape []bool, wdense [][]int64) (compIdx, compPos []int32, wflat [][]int64) {
	compPos = make([]int32, cells)
	for i := range compPos {
		compPos[i] = -1
	}
	for m := 0; m < cells; m++ {
		if inShape[m] {
			continue
		}
		for k := range wdense {
			if wdense[k][m] != 0 {
				compPos[m] = int32(len(compIdx))
				compIdx = append(compIdx, int32(m))
				break
			}
		}
	}
	wflat = make([][]int64, len(wdense))
	for k := range wflat {
		row := make([]int64, len(compIdx))
		for j, m := range compIdx {
			row[j] = wdense[k][m]
		}
		wflat[k] = row
	}
	return compIdx, compPos, wflat
}

// Shape returns the calibrated polyomino for a PoE.
func (c *Calibration) Shape(poe Cell) ([]Cell, error) {
	if err := c.ensure(poe); err != nil {
		return nil, err
	}
	return c.poes[c.cfg.Index(poe)].shape, nil
}

// deviationsInto computes, per shape cell, the exact integer deviation
// accumulator sum_j wflat[k][j] * (2*level-3) from scratch. Integer
// addition is associative, so this agrees bit-for-bit with any incremental
// maintenance of the same quantity — the property decryption relies on.
func (pc *poeCal) deviationsInto(dst []int64, levels []int) {
	for k, row := range pc.wflat {
		var d int64
		for j, m := range pc.compIdx {
			d += row[j] * levelQ(levels[m])
		}
		dst[k] = d
	}
}

// mixersInto derives the per-shape-cell mixing words from an already
// computed deviation accumulator (scratch or incremental — they are
// bit-identical).
func (c *Calibration) mixersInto(dst []uint64, pi int, pc *poeCal, acc []int64) {
	for k, d := range acc {
		v := pc.base[k] + float64(d)*devInvScale
		dst[k] = splitmix64(math.Float64bits(v) ^ uint64(pi)<<32 ^ uint64(k))
	}
}

// Mixers returns, per shape cell, a 64-bit mixing word derived from the
// exact solved voltage (baseline + data-dependent deviation) at comparator
// resolution. The SPECU's voltage classification reads the sneak voltage
// through a high-gain comparator bank, so the resulting level permutation
// is an extremely sensitive — yet fully deterministic and, because it
// depends only on complement data, exactly invertible — function of the
// state of the cells outside the polyomino. This sensitivity is what gives
// SPE its avalanche behaviour (Section 6.1).
func (c *Calibration) Mixers(levels []int, poe Cell) ([]uint64, error) {
	if err := c.ensure(poe); err != nil {
		return nil, err
	}
	pi := c.cfg.Index(poe)
	pc := &c.poes[pi]
	if len(levels) != c.cfg.Cells() {
		return nil, fmt.Errorf("xbar: Mixers needs %d levels, got %d", c.cfg.Cells(), len(levels))
	}
	acc := make([]int64, len(pc.shape))
	pc.deviationsInto(acc, levels)
	out := make([]uint64, len(acc))
	c.mixersInto(out, pi, pc, acc)
	return out, nil
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Baseline returns the calibrated mid-state |voltage| of each shape cell —
// used by the Fig. 4 style reporting and by tests.
func (c *Calibration) Baseline(poe Cell) ([]float64, error) {
	if err := c.ensure(poe); err != nil {
		return nil, err
	}
	return c.poes[c.cfg.Index(poe)].base, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
