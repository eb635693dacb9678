package nist

import (
	"math"
	"testing"

	"snvmm/internal/prng"
)

// pi100 is the first 100 binary digits of pi (including the integer part
// "11"), the worked example used throughout SP 800-22.
const pi100 = "1100100100001111110110101010001000100001011010001100" +
	"001000110100110001001100011001100010100010111000"

func strBits(s string) []uint8 {
	out := make([]uint8, len(s))
	for i := range s {
		if s[i] == '1' {
			out[i] = 1
		}
	}
	return out
}

func randomBits(n int, seed uint64) []uint8 {
	g := prng.NewGen(seed)
	bits := make([]uint8, n)
	g.Bits(bits)
	return bits
}

func approxP(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s p = %g, want %g", what, got, want)
	}
}

func TestFrequencyPiExample(t *testing.T) {
	// SP 800-22 section 2.1.8: P-value = 0.109599.
	r := Frequency(strBits(pi100))
	if !r.Applicable {
		t.Fatal("not applicable")
	}
	approxP(t, r.P[0], 0.109599, 1e-4, "monobit(pi)")
}

func TestBlockFrequencyPiExample(t *testing.T) {
	// SP 800-22 section 2.2.8 (M=10): P-value = 0.706438.
	r := BlockFrequency(strBits(pi100), 10)
	approxP(t, r.P[0], 0.706438, 1e-4, "blockfreq(pi,M=10)")
}

func TestRunsPiExample(t *testing.T) {
	// SP 800-22 section 2.3.8: P-value = 0.500798.
	r := Runs(strBits(pi100))
	approxP(t, r.P[0], 0.500798, 1e-4, "runs(pi)")
}

func TestCumulativeSumsPiExample(t *testing.T) {
	// SP 800-22 section 2.13.8: forward P = 0.219194, reverse P = 0.114866.
	r := CumulativeSums(strBits(pi100))
	approxP(t, r.P[0], 0.219194, 1e-3, "cusum-fwd(pi)")
	approxP(t, r.P[1], 0.114866, 1e-3, "cusum-rev(pi)")
}

func TestRandomSequencePassesAll(t *testing.T) {
	// A good PRNG sequence long enough for every test should pass the
	// whole suite (seeds picked once; deterministic).
	bits := randomBits(1<<20, 2)
	res := Suite(bits)
	if len(res) != len(TestNames) {
		t.Fatalf("suite returned %d tests", len(res))
	}
	for name, r := range res {
		if !r.Applicable {
			t.Errorf("%s not applicable at n=2^20", name)
			continue
		}
		if !r.Pass(Alpha) {
			t.Errorf("%s failed on random data: p=%v", name, r.P)
		}
		for _, p := range r.P {
			if p < 0 || p > 1 {
				t.Errorf("%s p-value %g out of [0,1]", name, p)
			}
		}
	}
}

func TestAllZerosFailsEverythingApplicable(t *testing.T) {
	bits := make([]uint8, 1<<17)
	for _, name := range []string{"F-mono", "F-block", "Runs", "LRoO", "Cusums", "App.Ent", "Ser.Com"} {
		r := Suite(bits)[name]
		if r.Applicable && r.Pass(Alpha) {
			t.Errorf("%s passed on all-zeros", name)
		}
	}
}

func TestAlternatingFailsRuns(t *testing.T) {
	bits := make([]uint8, 1<<14)
	for i := range bits {
		bits[i] = uint8(i % 2)
	}
	if r := Runs(bits); r.Pass(Alpha) {
		t.Error("runs passed on 0101...")
	}
	if r := DFT(bits); r.Pass(Alpha) {
		t.Error("DFT passed on 0101...")
	}
	if r := Serial(bits, 5); r.Pass(Alpha) {
		t.Error("serial passed on 0101...")
	}
	// But monobit is perfectly balanced and must pass.
	if r := Frequency(bits); !r.Pass(Alpha) {
		t.Error("monobit failed on balanced alternating")
	}
}

func TestBiasedFailsFrequency(t *testing.T) {
	g := prng.NewGen(9)
	bits := make([]uint8, 1<<14)
	for i := range bits {
		if g.Intn(100) < 55 { // 55% ones
			bits[i] = 1
		}
	}
	if r := Frequency(bits); r.Pass(Alpha) {
		t.Error("monobit passed on 55% biased data")
	}
}

func TestLFSRFailsLinearComplexity(t *testing.T) {
	// A short-period LFSR has tiny linear complexity in every block.
	state := uint32(0xACE1)
	bits := make([]uint8, 20000)
	for i := range bits {
		bit := state & 1
		fb := (state ^ state>>2 ^ state>>3 ^ state>>5) & 1
		state = state>>1 | fb<<15
		bits[i] = uint8(bit)
	}
	if r := LinearComplexity(bits); r.Pass(Alpha) {
		t.Error("linear complexity passed on degree-16 LFSR output")
	}
}

func TestPeriodicTemplateFailsNOTM(t *testing.T) {
	// Plant the default template 000000001 much more often than chance.
	g := prng.NewGen(4)
	bits := make([]uint8, 1<<14)
	g.Bits(bits)
	for i := 0; i+9 < len(bits); i += 40 {
		copy(bits[i:i+9], []uint8{0, 0, 0, 0, 0, 0, 0, 0, 1})
	}
	if r := NonOverlappingTemplate(bits, defaultTemplate); r.Pass(Alpha) {
		t.Error("NOTM passed on template-stuffed data")
	}
}

func TestMaurerDetectsRepetition(t *testing.T) {
	// Repeating a short pattern makes the universal statistic collapse.
	pattern := randomBits(64, 5)
	bits := make([]uint8, 1<<19)
	for i := range bits {
		bits[i] = pattern[i%64]
	}
	r := MaurerUniversal(bits)
	if !r.Applicable {
		t.Skip("Maurer not applicable at this length")
	}
	if r.Pass(Alpha) {
		t.Error("Maurer passed on 64-bit repeating pattern")
	}
}

func TestApplicabilityShortSequences(t *testing.T) {
	short := randomBits(64, 1)
	if r := Frequency(short); r.Applicable {
		t.Error("monobit applicable at n=64")
	}
	if r := BinaryMatrixRank(short); r.Applicable {
		t.Error("BMR applicable at n=64")
	}
	if r := MaurerUniversal(short); r.Applicable {
		t.Error("Maurer applicable at n=64")
	}
	if r := RandomExcursions(short); r.Applicable {
		t.Error("RndEx applicable at n=64")
	}
	// Inapplicable results pass vacuously.
	if r := BinaryMatrixRank(short); !r.Pass(Alpha) {
		t.Error("inapplicable result should pass")
	}
}

func TestPsiSquaredUniform(t *testing.T) {
	// For perfectly uniform pattern counts psi^2 is ~0; for constant data
	// it is large.
	bits := randomBits(1<<16, 3)
	if v := psiSquared(bits, 3); v > 50 {
		t.Errorf("psi^2 = %g on random data", v)
	}
	zeros := make([]uint8, 1<<12)
	if v := psiSquared(zeros, 3); v < 1000 {
		t.Errorf("psi^2 = %g on zeros, want large", v)
	}
}

func TestRandomExcursionsApplicability(t *testing.T) {
	// Random walks of decent length usually have >= 500 zero crossings
	// only for quite long sequences; verify both branches reachable.
	long := randomBits(1<<20, 8)
	r := RandomExcursions(long)
	if r.Applicable {
		for _, p := range r.P {
			if p < 0 || p > 1 {
				t.Errorf("RndEx p out of range: %g", p)
			}
		}
		if len(r.P) != 8 {
			t.Errorf("RndEx returned %d p-values, want 8", len(r.P))
		}
	}
	rv := RandomExcursionsVariant(long)
	if rv.Applicable && len(rv.P) != 18 {
		t.Errorf("REV returned %d p-values, want 18", len(rv.P))
	}
}

func TestRunBatchCounts(t *testing.T) {
	seqs := [][]uint8{
		randomBits(1<<14, 1),
		make([]uint8, 1<<14), // all zeros: fails many tests
	}
	br := RunBatch(seqs)
	if br.Sequences != 2 {
		t.Errorf("sequences = %d", br.Sequences)
	}
	if br.Failures["F-mono"] != 1 {
		t.Errorf("monobit failures = %d, want 1", br.Failures["F-mono"])
	}
}

func TestMaxAllowedFailures(t *testing.T) {
	// The paper's rule: at 150 sequences, up to 5 failures allowed.
	if got := MaxAllowedFailures(150); got != 5 {
		t.Errorf("MaxAllowedFailures(150) = %d, want 5", got)
	}
	if got := MaxAllowedFailures(10); got < 1 {
		t.Errorf("MaxAllowedFailures(10) = %d, want >= 1", got)
	}
	// The small-batch test's family-wise bound: 4 sequences over 60 cells.
	if got, fw := MaxAllowedFailures(4), maxAllowedFailuresAt(4, 0.005/60); got != 1 || fw != 2 {
		t.Errorf("4 sequences: per-cell bound %d (want 1), family-wise %d (want 2)", got, fw)
	}
}

func TestResultPassEdge(t *testing.T) {
	r := Result{Name: "x", Applicable: true, P: []float64{Alpha}}
	if !r.Pass(Alpha) {
		t.Error("p == alpha should pass")
	}
	r.P[0] = Alpha - 1e-9
	if r.Pass(Alpha) {
		t.Error("p < alpha should fail")
	}
	empty := Result{Name: "y", Applicable: true}
	if !empty.Pass(Alpha) {
		t.Error("empty P should pass vacuously")
	}
}

func TestNonOverlappingTemplateAll(t *testing.T) {
	bits := randomBits(1<<15, 21)
	r := NonOverlappingTemplateAll(bits, 9)
	if !r.Applicable {
		t.Fatal("not applicable")
	}
	if len(r.P) != 148 {
		t.Fatalf("%d template p-values, want 148", len(r.P))
	}
	// On random data roughly alpha*148 ~ 1.5 templates fail; allow slack.
	if fails := FailingTemplates(r, Alpha); fails > 8 {
		t.Errorf("%d/148 templates fail on random data", fails)
	}
	// Short input is inapplicable.
	if rr := NonOverlappingTemplateAll(randomBits(50, 1), 9); rr.Applicable {
		t.Error("short sequence should be inapplicable")
	}
	// m=0 yields nothing.
	if rr := NonOverlappingTemplateAll(bits, 0); rr.Applicable {
		t.Error("m=0 should be inapplicable")
	}
}

func TestNonOverlappingTemplateAllDetectsStuffing(t *testing.T) {
	g := prng.NewGen(31)
	bits := make([]uint8, 1<<15)
	g.Bits(bits)
	tpl := []uint8{1, 0, 1, 1, 0, 0, 1, 0, 1} // aperiodic? verify below
	for i := 0; i+9 < len(bits); i += 50 {
		copy(bits[i:i+9], tpl)
	}
	r := NonOverlappingTemplateAll(bits, 9)
	if fails := FailingTemplates(r, Alpha); fails == 0 {
		t.Error("template stuffing not detected by any template")
	}
}

func TestDFTNonPowerOfTwoLength(t *testing.T) {
	// 120000-bit sequences (the paper's length) exercise the Bluestein
	// path of the spectral test.
	bits := randomBits(120000, 77)
	r := DFT(bits)
	if !r.Applicable {
		t.Fatal("DFT inapplicable at n=120000")
	}
	if !r.Pass(Alpha) {
		t.Errorf("DFT failed random data at n=120000: p=%v", r.P)
	}
}

func TestSerialAndApEnVaryingM(t *testing.T) {
	bits := randomBits(1<<15, 13)
	for _, m := range []int{2, 3, 5, 7} {
		if r := Serial(bits, m); r.Applicable && !r.Pass(Alpha) {
			t.Errorf("Serial m=%d failed random data: %v", m, r.P)
		}
		if r := ApproximateEntropy(bits, m); r.Applicable && !r.Pass(Alpha) {
			t.Errorf("ApEn m=%d failed random data: %v", m, r.P)
		}
	}
	// Defaults kick in for m <= 0.
	if r := Serial(bits, 0); !r.Applicable {
		t.Error("Serial default m inapplicable")
	}
	if r := ApproximateEntropy(bits, -1); !r.Applicable {
		t.Error("ApEn default m inapplicable")
	}
}

func TestLongestRunLongSequenceParams(t *testing.T) {
	// n >= 750000 selects the M=10000 parameter set.
	bits := randomBits(800000, 3)
	r := LongestRunOfOnes(bits)
	if !r.Applicable || !r.Pass(Alpha) {
		t.Errorf("LRoO long-sequence params failed: %+v", r)
	}
}

func TestPValueUniformity(t *testing.T) {
	// Uniform p-values pass the second-level test.
	g := prng.NewGen(55)
	ps := make([]float64, 500)
	for i := range ps {
		ps[i] = float64(g.Uint64()>>11) / float64(1<<53)
	}
	if u := PValueUniformity(ps); u < 0.0001 {
		t.Errorf("uniform p-values judged non-uniform: %g", u)
	}
	// Clumped p-values fail.
	for i := range ps {
		ps[i] = 0.05 + 0.01*float64(i%3)
	}
	if u := PValueUniformity(ps); u > 0.0001 {
		t.Errorf("clumped p-values judged uniform: %g", u)
	}
	// Too few samples: indeterminate.
	if u := PValueUniformity(ps[:5]); u != 1 {
		t.Errorf("small sample uniformity %g, want 1", u)
	}
}

func TestRunBatchCollectsPValues(t *testing.T) {
	seqs := [][]uint8{randomBits(1<<14, 2), randomBits(1<<14, 3)}
	br := RunBatch(seqs)
	if got := len(br.PValues["F-mono"]); got != 2 {
		t.Errorf("collected %d monobit p-values, want 2", got)
	}
	for _, p := range br.PValues["F-mono"] {
		if p < 0 || p > 1 {
			t.Errorf("p out of range: %g", p)
		}
	}
}
