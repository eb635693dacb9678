package ilp

import (
	"math"
	"math/rand"
	"testing"

	"snvmm/internal/xbar"
)

// pivotDense is the full-width Gauss-Jordan pivot the nonzero-list kernel
// replaced: it scales and sweeps every active column of every row. It is
// kept as the oracle the production pivot must match bit for bit.
func (w *Workspace) pivotDense(row, col int) {
	N, R := w.aw, w.nCols
	pr := w.tab[row]
	pv := pr[col]
	for j := 0; j < N; j++ {
		pr[j] /= pv
	}
	pr[R] /= pv
	for i := range w.tab {
		if i == row {
			continue
		}
		ri := w.tab[i]
		f := ri[col]
		if f == 0 {
			continue
		}
		for j := 0; j < N; j++ {
			ri[j] -= f * pr[j]
		}
		ri[R] -= f * pr[R]
	}
	w.basisRow[w.basis[row]] = -1
	w.basis[row] = col
	w.basisRow[col] = row
	w.pivotCount++
}

// pivotRedDense is pivotRed over pivotDense, with the full-width
// reduced-cost update.
func (w *Workspace) pivotRedDense(row, col int) {
	w.pivotDense(row, col)
	re := w.red[col]
	if re == 0 {
		return
	}
	pr := w.tab[row]
	for j := 0; j < w.aw; j++ {
		if pr[j] != 0 {
			w.red[j] -= re * pr[j]
		}
	}
}

// sameBits reports whether a and b are the same float64, treating +0 and
// -0 as equal: the only difference the skipped f*0 updates can make.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// assertSameTableau checks every tableau entry (RHS column included), the
// reduced-cost row and the basis of a against b.
func assertSameTableau(t *testing.T, step int, a, b *Workspace) {
	t.Helper()
	for i := range a.tab {
		for j, v := range a.tab[i] {
			if u := b.tab[i][j]; !sameBits(v, u) {
				t.Fatalf("step %d: tab[%d][%d] = %v (%#x), oracle %v (%#x)",
					step, i, j, v, math.Float64bits(v), u, math.Float64bits(u))
			}
		}
	}
	for j, v := range a.red {
		if u := b.red[j]; !sameBits(v, u) {
			t.Fatalf("step %d: red[%d] = %v, oracle %v", step, j, v, u)
		}
	}
	for i := range a.basis {
		if a.basis[i] != b.basis[i] {
			t.Fatalf("step %d: basis[%d] = %d, oracle %d", step, i, a.basis[i], b.basis[i])
		}
	}
}

// twinWorkspaces compiles p twice, so the production kernel and the oracle
// each get their own tableau.
func twinWorkspaces(t *testing.T, p *Problem) (*Workspace, *Workspace) {
	t.Helper()
	a, err := NewWorkspace(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkspace(p)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestPivotMatchesDenseRandom fills twin tableaus with the same random,
// half-zero entries (signed zeros included) and drives both through one
// sequence of pivots, each on the largest entry of a random row.
func TestPivotMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for inst := 0; inst < 20; inst++ {
		a, b := twinWorkspaces(t, randomCoverInstance(rng))
		a.buildDual()
		for k := range a.backing {
			switch rng.Intn(4) {
			case 0:
				a.backing[k] = 0
			case 1:
				a.backing[k] = math.Copysign(0, -1)
			default:
				a.backing[k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		for j := range a.red {
			a.red[j] = rng.NormFloat64()
		}
		b.buildDual()
		copy(b.backing, a.backing)
		copy(b.red, a.red)
		for step := 0; step < 3*a.m; step++ {
			row := rng.Intn(a.m)
			col, best := -1, 0.0
			for j, v := range a.tab[row][:a.aw] {
				if math.Abs(v) > best {
					col, best = j, math.Abs(v)
				}
			}
			if col < 0 {
				continue
			}
			a.pivotRed(row, col)
			b.pivotRedDense(row, col)
			assertSameTableau(t, step, a, b)
		}
	}
}

// table1Problem is the 8x8 paper-shape Table 1 formulation at slack s: one
// binary per candidate PoE, a 1..2 coverage window per cell, and total
// coverage of at least 64+s. It restates poe.Solve's model because poe
// imports this package.
func table1Problem(s int) *Problem {
	cfg := xbar.DefaultConfig()
	n := cfg.Cells()
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	coveredBy := make([][]Term, n)
	total := make([]Term, n)
	for i := 0; i < n; i++ {
		p.Objective[i] = 1
		cells := cfg.PaperShape(cfg.CellAt(i))
		for _, c := range cells {
			m := cfg.Index(c)
			coveredBy[m] = append(coveredBy[m], Term{Var: i, Coef: 1})
		}
		total[i] = Term{Var: i, Coef: float64(len(cells))}
	}
	for _, terms := range coveredBy {
		p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: RNG, LB: 1, RHS: 2})
	}
	p.Cons = append(p.Cons, Constraint{Terms: total, Sense: GE, RHS: float64(n + s)})
	return p
}

// TestPivotMatchesDenseTable1 runs the dual simplex on the root tableau of
// the 8x8 S=48 Table 1 problem and then down one dive of branching fixes,
// taking every pivot decision from the production workspace and applying
// it to both kernels. The tableaus must agree after every pivot, so the
// oracle would have made the same decisions.
func TestPivotMatchesDenseTable1(t *testing.T) {
	a, b := twinWorkspaces(t, table1Problem(48))
	a.buildDual()
	b.buildDual()
	pivots := 0
	reoptimize := func() {
		degenerate := 0
		for iter := 0; iter < simplexMaxIters; iter++ {
			leave := a.dualLeave(degenerate >= 40)
			if leave < 0 {
				return
			}
			if a.tab[leave][a.nCols] > -ptol {
				a.complementBasic(leave)
				b.complementBasic(leave)
			}
			enter := a.dualEnter(leave)
			if enter < 0 {
				return // infeasible under the current fixes
			}
			if a.red[enter] < eps {
				degenerate++
			} else {
				degenerate = 0
			}
			a.pivotRed(leave, enter)
			b.pivotRedDense(leave, enter)
			pivots++
			assertSameTableau(t, pivots, a, b)
		}
	}
	reoptimize()
	// Dive: fix the most fractional basic structural variable toward 1,
	// as the branch-and-bound does, and re-optimize warm.
	for depth := 0; depth < 12; depth++ {
		branch, bestFrac := -1, 0.0
		for i, col := range a.basis {
			if col >= a.n || a.fixedMask[col] {
				continue
			}
			if f := math.Abs(a.tab[i][a.nCols] - math.Round(a.tab[i][a.nCols])); f > bestFrac+1e-6 {
				branch, bestFrac = col, f
			}
		}
		if branch < 0 {
			break
		}
		for _, w := range []*Workspace{a, b} {
			w.Fix(branch, 1)
			w.applyFixDiff()
		}
		assertSameTableau(t, pivots, a, b)
		reoptimize()
	}
	if pivots < 100 {
		t.Fatalf("only %d pivots; the dive did not exercise the kernel", pivots)
	}
	t.Logf("%d pivots bit-identical to the dense sweep", pivots)
}

// TestPivotAllocsNothing pins that a warm pivot reuses the workspace's
// nonzero-list buffers.
func TestPivotAllocsNothing(t *testing.T) {
	w, err := NewWorkspace(table1Problem(48))
	if err != nil {
		t.Fatal(err)
	}
	w.buildDual()
	leave := w.dualLeave(false)
	if leave < 0 {
		t.Fatal("root basis already optimal; nothing to pivot")
	}
	if w.tab[leave][w.nCols] > -ptol {
		w.complementBasic(leave)
	}
	enter := w.dualEnter(leave)
	if enter < 0 {
		t.Fatal("no entering column")
	}
	// Pivoting twice on the same element is a no-op on the basis, so every
	// run sees a warm workspace in the same state.
	if allocs := testing.AllocsPerRun(100, func() { w.pivotRed(leave, enter) }); allocs != 0 {
		t.Fatalf("pivot allocates %v times per call", allocs)
	}
}
