package trace

import (
	"testing"

	"snvmm/internal/cpu"
)

func TestGeneratorNextAllocatesNothing(t *testing.T) {
	p, err := ProfileByName("sjeng")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() { g.Next() }); allocs != 0 {
		t.Errorf("Generator.Next allocates %v times per instruction", allocs)
	}
}

var sinkInst cpu.Inst

// BenchmarkTraceGen times instruction generation over every profile.
func BenchmarkTraceGen(b *testing.B) {
	const insts = 50_000
	profiles := Profiles()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			g, err := NewGenerator(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < insts; j++ {
				sinkInst, _ = g.Next()
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(profiles)*insts), "ns/inst")
}
