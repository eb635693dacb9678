package xbar

import (
	"fmt"
	"math"
	"testing"

	"snvmm/internal/circuit"
)

// buildDense is the cross-validation oracle for the sketch characterization:
// it factors the driven network of this one PoE (circuit.FactorSystem) and
// answers every complement-cell perturbation with the batched probe-form
// Sherman–Morrison pass, sweeping the whole array. Same physics as
// buildSketch through an independent solver route, at O(n^3) per PoE.
func (c *Calibration) buildDense(poe Cell, pc *poeCal) error {
	cells := c.cfg.Cells()
	shape, err := c.xb.Shape(poe)
	if err != nil {
		return err
	}
	if len(shape) == 0 {
		return fmt.Errorf("xbar: PoE %+v has empty polyomino", poe)
	}
	inShape := make([]bool, cells)
	for _, cell := range shape {
		inShape[c.cfg.Index(cell)] = true
	}
	midR := c.xb.midR()
	nw, cellEdge, err := c.xb.buildNetwork(poe, midR, c.cfg.VDrive)
	if err != nil {
		return err
	}
	fac, err := nw.FactorSystem()
	if err != nil {
		return err
	}
	dv := make([]float64, cells)
	c.xb.cellDropsInto(dv, fac.Base())
	base := make([]float64, len(shape))
	for k, cell := range shape {
		base[k] = abs(dv[c.cfg.Index(cell)])
	}
	// Perturb each complement cell's state by +sensDelta and record the
	// voltage change at each shape cell, then quantize to the fixed-point
	// weight grid exactly as buildSketch does.
	comp := make([]int, 0, cells-len(shape))
	perts := make([]circuit.EdgePerturbation, 0, cells-len(shape))
	for m := 0; m < cells; m++ {
		if inShape[m] {
			continue
		}
		pr := c.xb.params[m]
		rPert := pr.ROn + (pr.ROff-pr.ROn)*(0.5+sensDelta)
		comp = append(comp, m)
		perts = append(perts, circuit.EdgePerturbation{Edge: cellEdge + m, NewOhms: rPert + c.cfg.RAccess})
	}
	pairs := make([]circuit.ProbePair, len(shape))
	for k, cell := range shape {
		pairs[k] = circuit.ProbePair{
			A: c.xb.rowNode(cell.Row, cell.Col),
			B: c.xb.colNode(cell.Row, cell.Col),
		}
	}
	diffs := make([]float64, len(perts)*len(pairs))
	if err := fac.SolveEdgesPerturbedDiffs(perts, pairs, diffs); err != nil {
		return err
	}
	maxW := int64((uint64(1)<<53 - 1) / uint64(3*cells))
	wdense := make([][]int64, len(shape))
	for k := range wdense {
		wdense[k] = make([]int64, cells)
	}
	for j, m := range comp {
		row := diffs[j*len(pairs) : (j+1)*len(pairs)]
		for k := range shape {
			w := (abs(row[k]) - base[k]) / sensDelta
			wq := int64(math.Round(w * (1 << devWeightBits)))
			if wq > maxW || wq < -maxW {
				return fmt.Errorf("xbar: PoE %+v sensitivity %g overflows the fixed-point weight grid", poe, w)
			}
			wdense[k][m] = wq
		}
	}
	pc.shape = shape
	pc.inShape = inShape
	pc.base = base
	pc.compIdx, pc.compPos, pc.wflat = flattenSensitivities(cells, inShape, wdense)
	return nil
}

// denseOracle characterizes one PoE of cfg through the dense oracle.
func denseOracle(t *testing.T, cfg Config, poe Cell) *poeCal {
	t.Helper()
	var pc poeCal
	if err := newCal(t, cfg).buildDense(poe, &pc); err != nil {
		t.Fatal(err)
	}
	return &pc
}

// assertMatchesOracle checks a production calibration record against the
// oracle's. Weights are huge on the fixed-point grid (~1e9-1e10 quanta at
// paper parameters) while the two routes agree to ~1e-8 relative, so a
// tight relative bound is meaningful; the complement list must match
// exactly.
func assertMatchesOracle(t *testing.T, label string, want, got *poeCal) {
	t.Helper()
	if len(want.shape) != len(got.shape) {
		t.Fatalf("%s: shape size %d vs %d", label, len(want.shape), len(got.shape))
	}
	for k := range want.base {
		if d := math.Abs(want.base[k] - got.base[k]); d > 1e-9*math.Abs(want.base[k])+1e-12 {
			t.Fatalf("%s shape %d: base %g vs %g", label, k, want.base[k], got.base[k])
		}
	}
	if len(want.compIdx) != len(got.compIdx) {
		t.Fatalf("%s: compIdx %d vs %d cells", label, len(want.compIdx), len(got.compIdx))
	}
	for j := range want.compIdx {
		if want.compIdx[j] != got.compIdx[j] {
			t.Fatalf("%s: compIdx[%d] %d vs %d", label, j, want.compIdx[j], got.compIdx[j])
		}
	}
	for k := range want.wflat {
		for j := range want.wflat[k] {
			wd, wg := want.wflat[k][j], got.wflat[k][j]
			lim := int64(math.Abs(float64(wd))*1e-6) + 8
			if d := wd - wg; d > lim || d < -lim {
				t.Fatalf("%s w[%d][%d]: oracle %d vs %d", label, k, j, wd, wg)
			}
		}
	}
}
