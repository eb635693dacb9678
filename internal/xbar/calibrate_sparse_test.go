package xbar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"snvmm/internal/device"
)

func calFor(t *testing.T, cfg Config, poe Cell) (*Calibration, *poeCal) {
	t.Helper()
	return ensureCal(t, newCal(t, cfg), poe)
}

// hierCalFor is calFor with the hierarchical sketch backend forced.
func hierCalFor(t *testing.T, cfg Config, poe Cell) (*Calibration, *poeCal) {
	t.Helper()
	return ensureCal(t, newHierCal(t, cfg), poe)
}

func ensureCal(t *testing.T, c *Calibration, poe Cell) (*Calibration, *poeCal) {
	t.Helper()
	if err := c.ensure(poe); err != nil {
		t.Fatal(err)
	}
	return c, &c.poes[c.cfg.Index(poe)]
}

func sizedConfig(rows, cols int) Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = rows, cols
	return cfg
}

// TestSketchMatchesDenseCalibration cross-validates the production sketch
// route against the per-PoE dense oracle: every PoE of the paper's 8x8
// device, and a corner, centre and edge PoE at 16x16 — same physics through
// two different solver routes.
func TestSketchMatchesDenseCalibration(t *testing.T) {
	cfg8 := sizedConfig(8, 8)
	cal8 := newCal(t, cfg8)
	for i := 0; i < cfg8.Cells(); i++ {
		poe := cfg8.CellAt(i)
		_, pc := ensureCal(t, cal8, poe)
		assertMatchesOracle(t, fmt.Sprintf("8x8 PoE %+v", poe), denseOracle(t, cfg8, poe), pc)
	}
	cfg16 := sizedConfig(16, 16)
	cal16 := newCal(t, cfg16)
	for _, poe := range []Cell{{Row: 0, Col: 0}, {Row: 8, Col: 8}, {Row: 15, Col: 5}} {
		_, pc := ensureCal(t, cal16, poe)
		assertMatchesOracle(t, fmt.Sprintf("16x16 PoE %+v", poe), denseOracle(t, cfg16, poe), pc)
	}
}

// TestTruncatedDeviationsBitIdentical is the acceptance-criterion test: at
// the default tolerance the truncated sweep must yield deviations that are
// bit-identical to a full (never-stopping) sweep, at 8x8 and 16x16. The
// weights themselves and the complement list must match exactly, and so
// must the int64 deviation accumulators over random data.
func TestTruncatedDeviationsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, size := range []struct{ rows, cols int }{{8, 8}, {16, 16}} {
		cfgTrunc := sizedConfig(size.rows, size.cols) // default truncation tolerance
		cfgFull := sizedConfig(size.rows, size.cols)
		cfgFull.TruncationTol = math.SmallestNonzeroFloat64 // never stops early
		poe := Cell{Row: size.rows / 2, Col: 1}
		_, pcT := calFor(t, cfgTrunc, poe)
		_, pcF := calFor(t, cfgFull, poe)
		if len(pcT.compIdx) != len(pcF.compIdx) {
			t.Fatalf("%dx%d: truncated compIdx %d vs full %d", size.rows, size.cols, len(pcT.compIdx), len(pcF.compIdx))
		}
		for k := range pcT.wflat {
			for j := range pcT.wflat[k] {
				if pcT.wflat[k][j] != pcF.wflat[k][j] {
					t.Fatalf("%dx%d w[%d][%d]: truncated %d vs full %d", size.rows, size.cols, k, j, pcT.wflat[k][j], pcF.wflat[k][j])
				}
			}
		}
		cells := size.rows * size.cols
		levels := make([]int, cells)
		for trial := 0; trial < 16; trial++ {
			for i := range levels {
				levels[i] = rng.Intn(device.Levels)
			}
			dT := make([]int64, len(pcT.shape))
			dF := make([]int64, len(pcF.shape))
			pcT.deviationsInto(dT, levels)
			pcF.deviationsInto(dF, levels)
			for k := range dT {
				if dT[k] != dF[k] {
					t.Fatalf("%dx%d trial %d shape %d: deviation %d vs %d", size.rows, size.cols, trial, k, dT[k], dF[k])
				}
			}
		}
	}
}

// TestTruncationRadiusKeepsExactWeights forces real truncation with a hard
// radius cap and checks that every kept weight still matches the full sweep
// bit for bit — truncation only ever drops cells, it never changes how a
// swept cell is characterized.
func TestTruncationRadiusKeepsExactWeights(t *testing.T) {
	cfgFull := sizedConfig(16, 16)
	cfgCap := sizedConfig(16, 16)
	cfgCap.TruncationRadius = 5
	poe := Cell{Row: 8, Col: 8}
	_, pcF := calFor(t, cfgFull, poe)
	_, pcC := calFor(t, cfgCap, poe)
	if len(pcC.compIdx) >= len(pcF.compIdx) {
		t.Fatalf("radius cap did not truncate: %d vs %d complement cells", len(pcC.compIdx), len(pcF.compIdx))
	}
	for j, m := range pcC.compIdx {
		if chebDist(cfgCap.CellAt(int(m)), poe) > 5 {
			t.Fatalf("kept cell %d outside the radius cap", m)
		}
		jf := pcF.compPos[m]
		if jf < 0 {
			t.Fatalf("kept cell %d missing from full sweep", m)
		}
		for k := range pcC.wflat {
			if pcC.wflat[k][j] != pcF.wflat[k][jf] {
				t.Fatalf("cell %d shape %d: capped %d vs full %d", m, k, pcC.wflat[k][j], pcF.wflat[k][jf])
			}
		}
	}
}

// TestTruncationTolMonotonicity is the property test: shrinking
// TruncationTol can only grow the visited neighbourhood. Tolerances are
// chosen around the measured weight scale at 16x16 paper parameters
// (~0.018 V/state interior rings, ~0.003 V at the boundary ring): 1.0 stops
// immediately beyond the polyomino, 0.01 and the subnormal floor sweep
// progressively more.
func TestTruncationTolMonotonicity(t *testing.T) {
	tols := []float64{1.0, 0.01, math.SmallestNonzeroFloat64}
	poe := Cell{Row: 8, Col: 8}
	var prev map[int32]bool
	var prevLen int
	strictGrowth := false
	for i, tol := range tols {
		cfg := sizedConfig(16, 16)
		cfg.TruncationTol = tol
		_, pc := calFor(t, cfg, poe)
		cur := make(map[int32]bool, len(pc.compIdx))
		for _, m := range pc.compIdx {
			cur[m] = true
		}
		if i > 0 {
			for m := range prev {
				if !cur[m] {
					t.Fatalf("tol %g dropped cell %d that tol %g visited", tol, m, tols[i-1])
				}
			}
			if len(cur) > prevLen {
				strictGrowth = true
			}
		}
		prev, prevLen = cur, len(cur)
	}
	if !strictGrowth {
		t.Fatal("no tolerance in the ladder actually grew the neighbourhood")
	}
}
