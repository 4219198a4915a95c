package spectral

import (
	"math"
	"testing"

	"plurality/internal/rng"
	"plurality/internal/topo"
)

// diagnose runs with a deep iteration budget: the closed-form checks need
// tight eigenvalue accuracy even where adjacent eigenvalues nearly
// coincide (the cycle), which the production defaults don't aim for.
func diagnose(t *testing.T, g topo.NeighborSource) Result {
	t.Helper()
	res, err := Diagnose(g, rng.New(7), Options{MaxIters: 30000, Tol: 1e-14})
	if err != nil {
		t.Fatalf("Diagnose(%s): %v", g.Name(), err)
	}
	return res
}

func TestCompleteAnalytic(t *testing.T) {
	res := diagnose(t, topo.NewComplete(1000))
	if math.Abs(res.Lambda2-0.5) > 1e-12 || math.Abs(res.SpectralGap-0.5) > 1e-12 {
		t.Errorf("clique+self: lambda2 %v gap %v, want 0.5 / 0.5", res.Lambda2, res.SpectralGap)
	}
	if math.Abs(res.Conductance-0.5) > 1e-12 {
		t.Errorf("clique+self conductance %v, want 0.5", res.Conductance)
	}
}

func TestCycleMatchesClosedForm(t *testing.T) {
	// Walk matrix of the n-cycle has second eigenvalue cos(2π/n); the
	// lazy version (1+cos(2π/n))/2.
	const n = 64
	res := diagnose(t, topo.NewCycle(n))
	want := (1 + math.Cos(2*math.Pi/n)) / 2
	if math.Abs(res.Lambda2-want) > 1e-6 {
		t.Errorf("cycle lambda2 %v, want %v", res.Lambda2, want)
	}
	// Cycle conductance: the best cut splits the ring into two arcs —
	// 2 crossing edges over volume n.
	if want := 2.0 / n; math.Abs(res.Conductance-want) > 1e-9 {
		t.Errorf("cycle conductance %v, want %v", res.Conductance, want)
	}
}

func TestHypercubeMatchesClosedForm(t *testing.T) {
	// Normalized adjacency eigenvalues of the d-cube are (d-2i)/d, so the
	// lazy second eigenvalue is (1 + (d-2)/d)/2 = 1 - 1/d.
	g := topo.NewHypercube(64) // d = 6
	res := diagnose(t, g)
	want := 1 - 1.0/6
	if math.Abs(res.Lambda2-want) > 1e-6 {
		t.Errorf("hypercube lambda2 %v, want %v", res.Lambda2, want)
	}
	// True conductance is 1/d (dimension cut); the sweep is an upper
	// bound and must stay within the Cheeger window (checked below), but
	// on the cube it should land close.
	if res.Conductance < 1.0/6-1e-9 || res.Conductance > 2.0/6 {
		t.Errorf("hypercube conductance %v, want in [1/6, 2/6]", res.Conductance)
	}
}

func TestExpanderVsBottleneck(t *testing.T) {
	r := rng.New(3)
	expander := topo.RandomRegular("regular:8", 2000, 8, r)
	barbell := topo.Barbell("barbell:8", 2000, 8, r)
	resE := diagnose(t, expander)
	resB := diagnose(t, barbell)
	if resE.SpectralGap < 0.08 {
		t.Errorf("random 8-regular gap %v, want expander-sized (> 0.08)", resE.SpectralGap)
	}
	if resE.Conductance < 0.15 {
		t.Errorf("random 8-regular conductance %v, want > 0.15", resE.Conductance)
	}
	// The barbell's bridge pins conductance near 2/(n·d) and the gap
	// below it (Cheeger upper bound).
	if resB.Conductance > 0.001 {
		t.Errorf("barbell conductance %v, want ≈ 1/8000", resB.Conductance)
	}
	if resB.SpectralGap > resE.SpectralGap/10 {
		t.Errorf("barbell gap %v not far below expander gap %v", resB.SpectralGap, resE.SpectralGap)
	}
}

func TestCheegerConsistency(t *testing.T) {
	// For every estimated pair: gap2/2 <= φ_sweep and the true φ <=
	// sqrt(2·gap2) — since the sweep upper-bounds true conductance we can
	// only check the lower branch plus sanity bounds. gap2 is the
	// non-lazy normalized gap = 2·SpectralGap.
	r := rng.New(5)
	gs := []topo.NeighborSource{
		topo.NewCycle(100),
		topo.NewHypercube(128),
		topo.RandomRegular("regular:6", 500, 6, r),
		topo.SmallWorld("smallworld:6:0.2", 500, 6, 0.2, r),
		topo.Gnp("gnp:0.03", 400, 0.03, r),
		topo.SBM("sbm", 400, 2, 0.08, 0.002, r),
	}
	for _, g := range gs {
		res := diagnose(t, g)
		gap2 := 2 * res.SpectralGap
		if res.Conductance < gap2/2-1e-6 {
			t.Errorf("%s: sweep conductance %v below Cheeger floor %v", g.Name(), res.Conductance, gap2/2)
		}
		if res.Conductance < 0 || res.Conductance > 1+1e-9 {
			t.Errorf("%s: conductance %v outside [0, 1]", g.Name(), res.Conductance)
		}
		if res.Lambda2 < 0 || res.Lambda2 > 1 {
			t.Errorf("%s: lambda2 %v outside [0, 1]", g.Name(), res.Lambda2)
		}
	}
}

func TestDisconnectedGraphHasZeroGap(t *testing.T) {
	// Two components → eigenvalue 1 with multiplicity 2 → gap 0.
	b := topo.NewBuilder("two-triangles", 6)
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1])
	}
	res := diagnose(t, b.Finalize())
	if res.SpectralGap > 1e-6 {
		t.Errorf("disconnected gap %v, want ~0", res.SpectralGap)
	}
	if res.Conductance > 1e-9 {
		t.Errorf("disconnected conductance %v, want 0", res.Conductance)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := topo.RandomRegular("regular:4", 300, 4, rng.New(9))
	deep := Options{MaxIters: 30000, Tol: 1e-14}
	a, err := Diagnose(g, rng.New(1), deep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Diagnose(g, rng.New(1), deep)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Diagnose(g, rng.New(2), deep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Lambda2-c.Lambda2) > 1e-6 {
		t.Errorf("lambda2 seed-dependent beyond tolerance: %v vs %v", a.Lambda2, c.Lambda2)
	}
}
