package nist

import (
	"testing"

	"snvmm/internal/core"
)

var dsEngine *core.Engine

func dsEngineForTest(t *testing.T) *core.Engine {
	t.Helper()
	if dsEngine == nil {
		e, err := core.NewEngine(core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		dsEngine = e
	}
	return dsEngine
}

func TestBuildUnknownDataSet(t *testing.T) {
	b := NewBuilder(dsEngineForTest(t))
	if _, err := b.Build("nope", DefaultSpec()); err == nil {
		t.Error("expected unknown data set error")
	}
}

func TestDataSetShapes(t *testing.T) {
	b := NewBuilder(dsEngineForTest(t))
	spec := DataSetSpec{Sequences: 2, SeqBits: 2048, Seed: 3}
	for _, name := range []DataSetName{KeyAvalanche, PTAvalanche, PTCTCorr, RandomPTKey, LowDensityPT, HighDensityKey} {
		seqs, err := b.Build(name, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(seqs) != spec.Sequences {
			t.Errorf("%s: %d sequences, want %d", name, len(seqs), spec.Sequences)
		}
		for _, s := range seqs {
			if len(s) != spec.SeqBits {
				t.Errorf("%s: sequence length %d, want %d", name, len(s), spec.SeqBits)
			}
			for _, bit := range s {
				if bit > 1 {
					t.Fatalf("%s: non-binary value %d", name, bit)
				}
			}
		}
	}
}

func TestDataSetsDeterministic(t *testing.T) {
	b := NewBuilder(dsEngineForTest(t))
	spec := DataSetSpec{Sequences: 1, SeqBits: 1024, Seed: 9}
	s1, err := b.Build(RandomPTKey, spec)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Build(RandomPTKey, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1[0] {
		if s1[0][i] != s2[0][i] {
			t.Fatal("data set not deterministic")
		}
	}
}

// TestSPERandomnessSmallBatch is a miniature Table 2: a few sequences per
// data set, with the suite's failure count bounded by the batch tolerance.
// The full-scale run lives in the benchmark harness (cmd/spe-sim -exp
// table2).
//
// The bound checks every (data set, test) cell, so the 0.5% exceedance
// level of MaxAllowedFailures is applied family-wise (Bonferroni): each
// cell gets 0.5%/cells. A per-cell 0.5% over 60 cells would reject a
// random-looking ciphertext with ~3.5% probability whenever it changes.
func TestSPERandomnessSmallBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	b := NewBuilder(dsEngineForTest(t))
	spec := DataSetSpec{Sequences: 4, SeqBits: 20000, Seed: 7}
	sets := []DataSetName{KeyAvalanche, PTAvalanche, RandomPTKey, PTCTCorr}
	allowed := maxAllowedFailuresAt(spec.Sequences, 0.005/float64(len(sets)*len(TestNames)))
	for _, name := range sets {
		seqs, err := b.Build(name, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		br := RunBatch(seqs)
		for _, test := range TestNames {
			if br.Failures[test] > allowed {
				t.Errorf("%s / %s: %d of %d sequences failed (allow %d)",
					name, test, br.Failures[test], spec.Sequences, allowed)
			}
		}
	}
}
