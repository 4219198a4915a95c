package topo

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"plurality/internal/rng"
)

// withRanges runs fn with forRanges forced to k ranges.
func withRanges(t *testing.T, k int, fn func()) {
	t.Helper()
	prev := testRanges
	testRanges = k
	defer func() { testRanges = prev }()
	fn()
}

func TestForRangesCoversEachVertexOnce(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 7, 1000} {
		for _, k := range []int{1, 2, 3, 8} {
			var mu sync.Mutex
			hits := make([]int, n)
			withRanges(t, k, func() {
				forRanges(n, func(lo, hi int64) {
					mu.Lock()
					defer mu.Unlock()
					for v := lo; v < hi; v++ {
						hits[v]++
					}
				})
			})
			for v, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d k=%d: vertex %d covered %d times", n, k, v, h)
				}
			}
		}
	}
}

// TestBuildSameBytesAnyRangeCount builds every materialized family, plus
// the repair-heavy dense regular graphs and a Builder fed directly, with
// 1, 2, 3 and 8 vertex ranges and requires identical arrays and the same
// rng position afterwards. Under -race it also checks that the parallel
// scatters, scans and sorts write disjoint rows.
func TestBuildSameBytesAnyRangeCount(t *testing.T) {
	builds := map[string]func(r *rng.Rand) *CSR{
		"regular:8":       func(r *rng.Rand) *CSR { return RandomRegular("g", 1000, 8, r) },
		"regular:3":       func(r *rng.Rand) *CSR { return RandomRegular("g", 998, 3, r) },
		"regular:49@50":   func(r *rng.Rand) *CSR { return RandomRegular("g", 50, 49, r) },
		"regular:100@200": func(r *rng.Rand) *CSR { return RandomRegular("g", 200, 100, r) },
		"gnp":             func(r *rng.Rand) *CSR { return Gnp("g", 1000, 0.01, r) },
		"smallworld":      func(r *rng.Rand) *CSR { return SmallWorld("g", 1000, 8, 0.1, r) },
		"ba":              func(r *rng.Rand) *CSR { return BarabasiAlbert("g", 1000, 3, r) },
		"sbm":             func(r *rng.Rand) *CSR { return SBM("g", 1000, 4, 0.05, 0.002, r) },
		"barbell":         func(r *rng.Rand) *CSR { return Barbell("g", 1000, 4, r) },
		"builder": func(r *rng.Rand) *CSR {
			b := NewBuilder("g", 1000)
			for i := 0; i < 5000; i++ {
				x, y := r.Int63n(1000), r.Int63n(1000)
				if x != y {
					b.AddEdge(x, y)
				}
			}
			return b.Finalize()
		},
	}
	for name, build := range builds {
		var want *CSR
		var wantNext uint64
		for _, k := range []int{1, 2, 3, 8} {
			r := rng.New(17)
			var g *CSR
			withRanges(t, k, func() { g = build(r) })
			next := r.Uint64()
			if want == nil {
				want, wantNext = g, next
				continue
			}
			if !slices.Equal(g.Offsets, want.Offsets) || !slices.Equal(g.Neighbors, want.Neighbors) || next != wantNext {
				t.Errorf("%s: %d ranges built different bytes than 1 range", name, k)
			}
		}
	}
}

// TestRepairDirtyListMatchesFullSweep checks the repair's shortcut: a
// sweep over only the rows dirtyRows lists makes exactly the draws and
// swaps of a sweep over every row, and leaves no row dirty. If a row
// outside the list ever became dirty before the full sweep passed it,
// the full sweep would draw for it and the two would differ; if it
// became dirty after, the final scan would list it.
func TestRepairDirtyListMatchesFullSweep(t *testing.T) {
	for _, tc := range []struct{ n, d int64 }{
		{1000, 8}, {998, 3}, {64, 40}, {50, 49}, {200, 100}, {33, 32}, {101, 4},
	} {
		for seed := uint64(1); seed <= 5; seed++ {
			label := fmt.Sprintf("n=%d d=%d seed=%d", tc.n, tc.d, seed)
			r := rng.New(seed)
			pairing := pairStubs(tc.n, tc.d, r)
			dirty := dirtyRows(pairing, tc.n, tc.d)
			all := make([]int32, tc.n)
			for v := range all {
				all[v] = int32(v)
			}
			short, full := slices.Clone(pairing), slices.Clone(pairing)
			rShort, rFull := *r, *r
			okShort := repairRows(short, tc.d, dirty, &rShort)
			okFull := repairRows(full, tc.d, all, &rFull)
			if okShort != okFull || !slices.Equal(short, full) || rShort.Uint64() != rFull.Uint64() {
				t.Errorf("%s: dirty-list repair (%d rows) differs from the full sweep", label, len(dirty))
				continue
			}
			if okShort {
				if left := dirtyRows(short, tc.n, tc.d); len(left) > 0 {
					t.Errorf("%s: rows %v still dirty after repair", label, left)
				}
			}
		}
	}
}
