package sim

import (
	"testing"

	"snvmm/internal/mem"
	"snvmm/internal/secure"
	"snvmm/internal/trace"
)

// withPlain is the Plain baseline followed by the Fig. 7/8 schemes: every
// engine a profile runs under in a sweep.
func withPlain() []SchemeFactory {
	plain := SchemeFactory{Name: "plain", New: func() mem.EncryptionEngine { return secure.NewPlain() }}
	return append([]SchemeFactory{plain}, Schemes()...)
}

// TestSweepCyclesGolden pins the simulated cycles of every (profile,
// engine) run of a 5000-instruction, seed-11 sweep. Their sum is the
// 15 066 615 cycles the repository benchmark pins. A change that only
// makes the simulator faster must leave every entry as it is; a change
// that moves one changes the model and must say so.
func TestSweepCyclesGolden(t *testing.T) {
	want := map[string][6]uint64{ // plain, AES, i-NVMM, SPE-serial, SPE-parallel, Stream
		"bzip2":      {221078, 257652, 221078, 228390, 233350, 221535},
		"gcc":        {270718, 317439, 270718, 280062, 285106, 271302},
		"mcf":        {325656, 378936, 325656, 336312, 341948, 326322},
		"hmmer":      {32336, 41358, 32336, 34128, 35184, 32448},
		"sjeng":      {217272, 254058, 217272, 224618, 227995, 217729},
		"libquantum": {238731, 324810, 238731, 255931, 272251, 239806},
		"h264ref":    {178752, 209991, 178752, 184992, 189760, 179142},
		"omnetpp":    {334641, 390401, 334641, 345793, 351514, 335338},
		"astar":      {227776, 265216, 227776, 235264, 239568, 228244},
		"milc":       {331640, 449560, 331640, 355224, 377624, 333114},
	}
	var sum uint64
	for _, p := range trace.Profiles() {
		for i, f := range withPlain() {
			r, err := Run(p, f.New(), 5000, 11)
			if err != nil {
				t.Fatal(err)
			}
			sum += r.Stats.Cycles
			if w := want[p.Name][i]; r.Stats.Cycles != w {
				t.Errorf("%s/%s: %d cycles, want %d", p.Name, f.Name, r.Stats.Cycles, w)
			}
		}
	}
	if sum != 15066615 {
		t.Errorf("sweep total %d cycles, want 15066615", sum)
	}
}

func TestRunAllocations(t *testing.T) {
	p, err := trace.ProfileByName("sjeng")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(p, secure.NewPlain(), 5000, 11); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("sim.Run allocates %v times, want <= 100", allocs)
	}
}

// BenchmarkSimRun times one 50k-instruction run of every profile under
// each engine.
func BenchmarkSimRun(b *testing.B) {
	const insts = 50_000
	profiles := trace.Profiles()
	for _, f := range withPlain() {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range profiles {
					if _, err := Run(p, f.New(), insts, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(profiles)*insts), "ns/inst")
		})
	}
}
