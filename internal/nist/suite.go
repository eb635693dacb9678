package nist

import "snvmm/internal/numeric"

// TestNames lists the fifteen suite tests in the Table 2 row order.
var TestNames = []string{
	"F-mono", "F-block", "Runs", "LRoO", "BMR", "DFT",
	"NOTM", "OTM", "Maurer", "Lin.Com", "Ser.Com", "App.Ent",
	"Cusums", "Rnd.Ex", "REV",
}

// Suite runs all fifteen tests on one sequence and returns results keyed by
// test name.
func Suite(bits []uint8) map[string]Result {
	out := make(map[string]Result, len(TestNames))
	add := func(r Result) { out[r.Name] = r }
	add(Frequency(bits))
	add(BlockFrequency(bits, 128))
	add(Runs(bits))
	add(LongestRunOfOnes(bits))
	add(BinaryMatrixRank(bits))
	add(DFT(bits))
	add(NonOverlappingTemplate(bits, defaultTemplate))
	add(OverlappingTemplate(bits))
	add(MaurerUniversal(bits))
	add(LinearComplexity(bits))
	add(Serial(bits, 5))
	add(ApproximateEntropy(bits, 5))
	add(CumulativeSums(bits))
	add(RandomExcursions(bits))
	add(RandomExcursionsVariant(bits))
	return out
}

// BatchResult aggregates suite outcomes over many sequences — one Table 2
// column.
type BatchResult struct {
	Sequences int
	// Failures[name] counts sequences with a representative p below Alpha.
	Failures map[string]int
	// Inapplicable[name] counts sequences where the test could not run.
	Inapplicable map[string]int
	// PValues[name] collects the representative p-value of every
	// applicable sequence, for the second-level uniformity analysis.
	PValues map[string][]float64
}

// RunBatch applies the suite to every sequence and tallies failures.
func RunBatch(seqs [][]uint8) BatchResult {
	br := BatchResult{
		Sequences:    len(seqs),
		Failures:     make(map[string]int, len(TestNames)),
		Inapplicable: make(map[string]int, len(TestNames)),
		PValues:      make(map[string][]float64, len(TestNames)),
	}
	for _, s := range seqs {
		for name, r := range Suite(s) {
			if !r.Applicable {
				br.Inapplicable[name]++
				continue
			}
			if len(r.P) > 0 {
				br.PValues[name] = append(br.PValues[name], r.P[0])
			}
			if !r.Pass(Alpha) {
				br.Failures[name]++
			}
		}
	}
	return br
}

// PValueUniformity is the STS second-level analysis: under the null
// hypothesis the p-values of a test across many sequences are uniform on
// [0, 1]. The statistic is a 10-bin chi-square; the returned value is the
// meta p-value (SP 800-22 section 4.2.2 requires it >= 0.0001 for large
// batches). Fewer than 10 samples returns 1 (not enough data to judge).
func PValueUniformity(ps []float64) float64 {
	if len(ps) < 10 {
		return 1
	}
	var bins [10]int
	for _, p := range ps {
		b := int(p * 10)
		if b > 9 {
			b = 9
		}
		if b < 0 {
			b = 0
		}
		bins[b]++
	}
	exp := float64(len(ps)) / 10
	chi := 0.0
	for _, c := range bins {
		d := float64(c) - exp
		chi += d * d / exp
	}
	return numeric.Igamc(4.5, chi/2)
}

// MaxAllowedFailures returns the largest number of failing sequences (out
// of total) consistent with randomness at significance Alpha: the smallest
// k whose exceedance probability under Bin(total, Alpha) drops below 0.5%.
// For the paper's 150 sequences this gives the quoted bound of 5.
func MaxAllowedFailures(total int) int {
	return maxAllowedFailuresAt(total, 0.005)
}

// maxAllowedFailuresAt is MaxAllowedFailures at an arbitrary exceedance
// level: the smallest k with P[Bin(total, Alpha) > k] < level.
func maxAllowedFailuresAt(total int, level float64) int {
	for k := 0; k <= total; k++ {
		if numeric.BinomialTail(total, Alpha, k+1) < level {
			return k
		}
	}
	return total
}
