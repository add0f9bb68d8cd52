package equilibrium

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestParallelBuildDeterminism: New with workers=N must produce results
// deeply equal to workers=1 — routes, base traffic, response tables, shed
// statistics and response samples — on both reference topologies and the
// 96-node hierarchical benchmark map. The worker pool only partitions the
// per-link work; it must not influence any output bit.
func TestParallelBuildDeterminism(t *testing.T) {
	hg, hm := hier96()
	cases := []struct {
		name string
		g    *topology.Graph
		m    *traffic.Matrix
	}{
		{"arpanet1987", topology.Arpanet(), traffic.Gravity(topology.Arpanet(), topology.ArpanetWeights(), 400000)},
		{"milnet", topology.Milnet(), traffic.Gravity(topology.Milnet(), topology.MilnetWeights(), 400000)},
		{"hier96", hg, hm},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := New(tc.g, tc.m, WithWorkers(1))
			for _, workers := range []int{2, 8} {
				par := New(tc.g, tc.m, WithWorkers(workers))
				if !reflect.DeepEqual(seq.routes, par.routes) {
					t.Fatalf("workers=%d: routes differ from sequential build", workers)
				}
				if !reflect.DeepEqual(seq.base, par.base) {
					t.Fatalf("workers=%d: base traffic differs", workers)
				}
				if !reflect.DeepEqual(seq.tables, par.tables) {
					t.Fatalf("workers=%d: per-link response tables differ", workers)
				}
				if !reflect.DeepEqual(seq.allTable, par.allTable) {
					t.Fatalf("workers=%d: aggregate response table differs", workers)
				}
				if !reflect.DeepEqual(seq.ShedCosts(), par.ShedCosts()) {
					t.Fatalf("workers=%d: shed statistics differ", workers)
				}
				for w := 1.0; w <= 9; w += 0.125 {
					if rs, rp := seq.Response(w), par.Response(w); rs != rp {
						t.Fatalf("workers=%d: Response(%v) = %v vs %v", workers, w, rp, rs)
					}
				}
			}
		})
	}
}

// naiveRemain replicates the pre-table route scan: the reference the
// prefix-sum tables must reproduce.
func naiveRemain(routes []routeStat, w float64) float64 {
	var remain float64
	for _, r := range routes {
		keep := r.shedAt + 1 - w
		if keep >= 1 {
			remain += r.rate
		} else if keep > 0 {
			remain += r.rate * keep
		}
	}
	return remain
}

// TestResponseTablesMatchScan checks the O(log R) tables against the
// original O(R) scan at many costs — including the integer and
// half-integer points Figure 8 is read at and the exact threshold values
// where the binary-search boundaries sit.
func TestResponseTablesMatchScan(t *testing.T) {
	mo := model()
	costs := []float64{1, 1.25, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6, 7, 8, 9, 10}
	for _, rs := range mo.routes {
		for _, r := range rs[:min(len(rs), 3)] {
			costs = append(costs, r.shedAt, r.shedAt+1, r.shedAt+0.5)
		}
	}
	for li := range mo.routes {
		for _, w := range costs {
			want := naiveRemain(mo.routes[li], w)
			got := mo.tables[li].remain(w)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("link %d remain(%v) = %v, want %v", li, w, got, want)
			}
		}
	}
	// Aggregate map against a scan over every link's routes.
	for _, w := range costs {
		var want, base float64
		for li := range mo.routes {
			want += naiveRemain(mo.routes[li], w)
			base += mo.base[li]
		}
		want /= base
		if got := mo.Response(w); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Response(%v) = %v, want %v", w, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestWithWorkersPanics: a non-positive worker count is a programming
// error.
func TestWithWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithWorkers(0) should panic")
		}
	}()
	WithWorkers(0)
}
