package poe

import (
	"fmt"
	"runtime"
	"testing"

	"snvmm/internal/sched"
	"snvmm/internal/xbar"
)

// The placement benchmarks pin the solver's regimes: the 8x8 default
// config solves at the root (pure LP + canonicalization cost), the 16x16
// S=0 instance is a slice of a branch-and-bound search, and Table1Search is
// the real search behind the paper's Table 1 (8x8, S=48, ~2800 nodes). The
// 16x16 cases cap MaxNodes so one iteration is a fixed amount of search
// work rather than a run-to-optimality whose length depends on incumbent
// luck; the sequential vs parallel pair then isolates the work-stealing
// overhead (on multi-core hosts, the speedup). The workers label is the
// requested width; the solver clamps it to GOMAXPROCS, and the workers
// metric reports the width that actually ran.
func benchSolve(b *testing.B, rows, cols, s, maxNodes, workers int) {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = rows, cols
	spec := Spec{Cfg: cfg, S: s, MaxNodes: maxNodes, Workers: workers}
	b.ReportAllocs()
	var nodes, iters int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(spec)
		if err != nil {
			b.Fatal(err)
		}
		nodes, iters = res.Nodes, res.SimplexIters
	}
	b.ReportMetric(float64(nodes), "nodes")
	b.ReportMetric(float64(iters), "simplex_iters")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(iters), "ns/iter")
	b.ReportMetric(float64(sched.Workers(workers)), "workers")
}

func BenchmarkPlacement8x8(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSolve(b, 8, 8, 0, 0, workers)
		})
	}
}

func BenchmarkPlacement16x16(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSolve(b, 16, 16, 0, 40, workers)
		})
	}
}

// BenchmarkTable1Search is the S=48 row of Table 1 run to proven
// optimality, sequentially and at the host's full width.
func BenchmarkTable1Search(b *testing.B) {
	widths := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		widths = append(widths, p)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSolve(b, 8, 8, 48, 100000, workers)
		})
	}
}
