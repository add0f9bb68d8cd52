package equilibrium

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// BenchmarkModelNew isolates the §5 model build (one ambient all-pairs hop
// matrix, then per link one breadth-first search from each source the link
// can carry) so its cost is tracked independently of the figure pipelines.
func BenchmarkModelNew(b *testing.B) {
	g := topology.Arpanet()
	m := traffic.Gravity(g, topology.ArpanetWeights(), 400000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo := New(g, m)
		if mo.MeanBaseTraffic() <= 0 {
			b.Fatal("empty model")
		}
	}
}

// BenchmarkModelNewHier96 is the build on the 96-node hierarchical map
// and jittered uniform demand of the section-5 benchmark workload, where
// the per-link searches dominate more than on the 30-node ARPANET.
func BenchmarkModelNewHier96(b *testing.B) {
	g, m := hier96()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo := New(g, m)
		if mo.MeanBaseTraffic() <= 0 {
			b.Fatal("empty model")
		}
	}
}

// BenchmarkModelNewSerial pins the build to one worker — the baseline the
// parallel build is compared against.
func BenchmarkModelNewSerial(b *testing.B) {
	g := topology.Arpanet()
	m := traffic.Gravity(g, topology.ArpanetWeights(), 400000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo := New(g, m, WithWorkers(1))
		if mo.MeanBaseTraffic() <= 0 {
			b.Fatal("empty model")
		}
	}
}

// BenchmarkResponse measures one Network Response Map query.
func BenchmarkResponse(b *testing.B) {
	mo := model()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := mo.Response(1 + float64(i%70)/10); r < 0 {
			b.Fatal("negative response")
		}
	}
}
