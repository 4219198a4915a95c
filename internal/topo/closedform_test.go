package topo

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"plurality/internal/rng"
)

// checkSourceInvariants verifies every enumerated neighbor is in range.
func checkSourceInvariants(t *testing.T, g NeighborSource) {
	t.Helper()
	n := g.N()
	for v := int64(0); v < n; v++ {
		d := g.Degree(v)
		for i := int64(0); i < d; i++ {
			u := g.Neighbor(v, i)
			if u < 0 || u >= n {
				t.Fatalf("%s: Neighbor(%d,%d) = %d out of range", g.Name(), v, i, u)
			}
		}
	}
}

// checkSymmetric verifies undirected symmetry: u ∈ N(v) ⟺ v ∈ N(u).
func checkSymmetric(t *testing.T, g NeighborSource) {
	t.Helper()
	n := g.N()
	type edge struct{ a, b int64 }
	fwd := map[edge]int{}
	for v := int64(0); v < n; v++ {
		for i := int64(0); i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			if u == v {
				continue // self-loops are their own mirror
			}
			fwd[edge{v, u}]++
		}
	}
	for e, c := range fwd {
		if fwd[edge{e.b, e.a}] != c {
			t.Fatalf("%s: asymmetric adjacency %v", g.Name(), e)
		}
	}
}

// expectPanics runs each case and fails the ones that return normally.
func expectPanics(t *testing.T, cases map[string]func()) {
	t.Helper()
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCompleteWithSelf(t *testing.T) {
	g := NewComplete(10)
	if g.Degree(3) != 10 {
		t.Errorf("degree = %d, want 10 (self included)", g.Degree(3))
	}
	checkSourceInvariants(t, g)
	// Sampling must be uniform over all vertices including self.
	r := rng.New(1)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[g.SampleNeighbor(3, r)]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-draws/10) > 5*math.Sqrt(draws/10) {
			t.Errorf("vertex %d sampled %d times", v, c)
		}
	}
}

func TestCompleteWithoutSelf(t *testing.T) {
	g := Complete{Vertices: 8, IncludeSelf: false}
	if g.Degree(0) != 7 {
		t.Errorf("degree = %d, want 7", g.Degree(0))
	}
	checkSourceInvariants(t, g)
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		if g.SampleNeighbor(5, r) == 5 {
			t.Fatal("sampled self with IncludeSelf=false")
		}
	}
	// Neighbor enumeration must skip self.
	seen := map[int64]bool{}
	for i := int64(0); i < 7; i++ {
		u := g.Neighbor(5, i)
		if u == 5 || seen[u] {
			t.Fatalf("Neighbor(5,%d) = %d invalid", i, u)
		}
		seen[u] = true
	}
}

func TestCycle(t *testing.T) {
	g := NewCycle(5)
	checkSourceInvariants(t, g)
	checkSymmetric(t, g)
	if g.Neighbor(0, 0) != 1 || g.Neighbor(0, 1) != 4 {
		t.Errorf("cycle neighbors of 0: %d %d", g.Neighbor(0, 0), g.Neighbor(0, 1))
	}
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		u := g.SampleNeighbor(2, r)
		if u != 1 && u != 3 {
			t.Fatalf("cycle sampled non-neighbor %d of 2", u)
		}
	}
}

func TestTorus(t *testing.T) {
	g := NewTorus(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	checkSourceInvariants(t, g)
	checkSymmetric(t, g)
	// Vertex 0 = (0,0): right 1, left 3, down 4, up 8 — in that order.
	for i, want := range []int64{1, 3, 4, 8} {
		if got := g.Neighbor(0, int64(i)); got != want {
			t.Errorf("Neighbor(0, %d) = %d, want %d", i, got, want)
		}
	}
}

func TestStar(t *testing.T) {
	g := NewStar(6)
	checkSourceInvariants(t, g)
	checkSymmetric(t, g)
	if g.Degree(0) != 5 || g.Degree(3) != 1 {
		t.Errorf("star degrees: hub %d leaf %d", g.Degree(0), g.Degree(3))
	}
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		if g.SampleNeighbor(2, r) != 0 {
			t.Fatal("leaf must sample the hub")
		}
		if g.SampleNeighbor(0, r) == 0 {
			t.Fatal("hub must sample a leaf")
		}
	}
}

func TestLegacyRandomRegular(t *testing.T) {
	r := rng.New(5)
	g := LegacyRandomRegular(50, 4, r)
	if g.N() != 50 {
		t.Fatalf("N = %d", g.N())
	}
	checkSourceInvariants(t, g)
	checkSymmetric(t, g)
	for v := int64(0); v < 50; v++ {
		if g.Degree(v) != 4 {
			t.Errorf("vertex %d degree %d, want 4", v, g.Degree(v))
		}
		// Simple graph: no self-loops, no parallel edges.
		seen := map[int64]bool{}
		for i := int64(0); i < 4; i++ {
			u := g.Neighbor(v, i)
			if u == v {
				t.Errorf("self-loop at %d", v)
			}
			if seen[u] {
				t.Errorf("parallel edge %d-%d", v, u)
			}
			seen[u] = true
		}
	}
}

func TestLegacyRandomRegularPanics(t *testing.T) {
	r := rng.New(6)
	expectPanics(t, map[string]func(){
		"oddProduct": func() { LegacyRandomRegular(5, 3, r) },
		"dTooBig":    func() { LegacyRandomRegular(4, 4, r) },
		"dZero":      func() { LegacyRandomRegular(4, 0, r) },
	})
}

func TestErdosRenyi(t *testing.T) {
	r := rng.New(7)
	const n, p = 400, 0.05
	g := Gnp("gnp", n, p, r)
	checkSourceInvariants(t, g)
	checkSymmetric(t, g)
	// Edge count ~ Binomial(C(n,2), p); mean 3990, sd ~ 61.6.
	var twiceEdges int64
	for v := int64(0); v < n; v++ {
		twiceEdges += g.Degree(v)
	}
	edges := float64(twiceEdges) / 2
	mean := float64(n*(n-1)) / 2 * p
	sd := math.Sqrt(float64(n*(n-1)) / 2 * p * (1 - p))
	if math.Abs(edges-mean) > 6*sd {
		t.Errorf("edge count %v far from mean %v (sd %v)", edges, mean, sd)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	r := rng.New(8)
	empty := Gnp("gnp", 10, 0, r)
	for v := int64(0); v < 10; v++ {
		if empty.Degree(v) != 0 {
			t.Errorf("G(n,0) has an edge at %d", v)
		}
		// Isolated vertices sample themselves.
		if empty.SampleNeighbor(v, r) != v {
			t.Error("isolated vertex must sample itself")
		}
	}
	full := Gnp("gnp", 10, 1, r)
	for v := int64(0); v < 10; v++ {
		if full.Degree(v) != 9 {
			t.Errorf("G(n,1) vertex %d degree %d, want 9", v, full.Degree(v))
		}
	}
}

func TestGnpPanics(t *testing.T) {
	r := rng.New(9)
	expectPanics(t, map[string]func(){
		"n0":   func() { Gnp("gnp", 0, 0.5, r) },
		"pNeg": func() { Gnp("gnp", 5, -0.1, r) },
		"pBig": func() { Gnp("gnp", 5, 1.1, r) },
	})
}

func TestSampleNeighborIsNeighborProperty(t *testing.T) {
	r := rng.New(10)
	sources := []NeighborSource{
		NewCycle(9),
		NewTorus(4, 5),
		NewStar(7),
		LegacyRandomRegular(20, 3, r),
		Gnp("gnp", 30, 0.3, r),
	}
	for _, g := range sources {
		f := func(vRaw uint16) bool {
			v := int64(vRaw) % g.N()
			if g.Degree(v) == 0 {
				return g.SampleNeighbor(v, r) == v
			}
			u := g.SampleNeighbor(v, r)
			for i := int64(0); i < g.Degree(v); i++ {
				if g.Neighbor(v, i) == u {
					return true
				}
			}
			return false
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	expectPanics(t, map[string]func(){
		"Complete0": func() { NewComplete(0) },
		"Cycle2":    func() { NewCycle(2) },
		"Torus2":    func() { NewTorus(2, 5) },
		"Star1":     func() { NewStar(1) },
	})
}

// TestNames pins the Name() strings engine names and records carry.
func TestNames(t *testing.T) {
	cases := map[string]NeighborSource{
		"complete+self":    NewComplete(5),
		"complete":         Complete{Vertices: 5},
		"cycle":            NewCycle(5),
		"torus":            NewTorus(3, 3),
		"star":             NewStar(4),
		"random-2-regular": LegacyRandomRegular(6, 2, rng.New(1)),
	}
	for want, g := range cases {
		if g.Name() != want {
			t.Errorf("Name() = %q, want %q", g.Name(), want)
		}
	}
}

// TestGeneratorsByteDeterministic pins the legacy generator's determinism
// contract: for a fixed seed the graph is byte-identical across runs —
// offsets and adjacency arrays both — and different seeds produce
// different graphs. The golden traces built on it rely on this.
func TestGeneratorsByteDeterministic(t *testing.T) {
	equal := func(a, b *CSR) bool {
		return slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Neighbors, b.Neighbors)
	}
	regA := LegacyRandomRegular(500, 6, rng.New(11))
	regB := LegacyRandomRegular(500, 6, rng.New(11))
	if !equal(regA, regB) {
		t.Error("LegacyRandomRegular not byte-identical for a fixed seed")
	}
	if equal(regA, LegacyRandomRegular(500, 6, rng.New(12))) {
		t.Error("LegacyRandomRegular ignores the seed")
	}
}

func TestGeometricSkipAlwaysPositive(t *testing.T) {
	r := rng.New(2)
	for _, p := range []float64{0.001, 0.5, 0.999} {
		for i := 0; i < 10000; i++ {
			if s := geometricSkip(r, p); s < 1 {
				t.Fatalf("skip %d < 1 at p=%v", s, p)
			}
		}
	}
}

func TestGeometricSkipMean(t *testing.T) {
	// E[skip] = 1/p.
	r := rng.New(3)
	const p, draws = 0.2, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(geometricSkip(r, p))
	}
	mean := sum / draws
	if mean < 4.8 || mean > 5.2 {
		t.Fatalf("mean skip %v, want ~5", mean)
	}
}

// TestGnpTinyPBuildsNoEdges covers P so small that 1-P rounds to 1: the
// geometric skip must saturate past the end of the row instead of
// wrapping to a skip of 1, which would build the complete graph.
func TestGnpTinyPBuildsNoEdges(t *testing.T) {
	for _, spec := range []string{"gnp:1e-17", "gnp:1e-300", "sbm:2:1e-17:1e-17"} {
		g, err := BuildSource(spec, 2000, rng.New(1), BuildOpts{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if e := g.(*CSR).Edges(); e != 0 {
			t.Errorf("%s at n=2000: %d edges, want 0", spec, e)
		}
	}
	r := rng.New(2)
	for _, p := range []float64{1e-17, 1e-300, 5e-324, 2e-16} {
		if s := geometricSkip(r, p); s < 1 || s > maxSkip {
			t.Errorf("geometricSkip(%v) = %d, want in [1, 2^62]", p, s)
		}
	}
}
