package engine

import (
	"io"
	"path/filepath"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/stats"
	"plurality/internal/topo"
)

// TestStepZeroAllocs pins the headline perf property: the steady-state Step
// of every engine allocates nothing, including the multi-worker engines
// (persistent worker pools) and the graph engine on every backend — the
// clique alias path, the flat CSR path, the implicit functional path, and
// the mmap-backed path — and all five graphWorker.run dispatch rows, at
// uint8 colors (k=8) and, for the flat-batch and generic-serial rows, at
// uint16 colors (k=300).
func TestStepZeroAllocs(t *testing.T) {
	r := rng.New(1)
	init := colorcfg.Biased(20_000, 8, 500)
	init16 := colorcfg.Biased(20_000, 300, 500)

	// The implicit torus samples neighbors functionally — nothing but the
	// color arrays is materialized. n must be an exact cube for torus:3.
	initTorus := colorcfg.Biased(13_824, 8, 500) // 24³
	initTorus16 := colorcfg.Biased(13_824, 300, 500)
	torus, err := topo.BuildSource("torus:3", 13_824, nil, topo.BuildOpts{Mode: topo.ModeImplicit})
	if err != nil {
		t.Fatal(err)
	}

	// The mmap backend serves the same structure from an on-disk file.
	mmapPath := filepath.Join(t.TempDir(), "regular8.csr")
	mmapSrc, err := topo.BuildSource("regular:8", 20_000, rng.New(2), topo.BuildOpts{Mode: topo.ModeMmap, Path: mmapPath})
	if err != nil {
		t.Fatal(err)
	}
	defer mmapSrc.(io.Closer).Close()

	// A skewed-degree flat graph (gnp) exercises the per-vertex draw loops
	// rather than the uniform-degree bulk kernels.
	gnp, err := topo.BuildSource("gnp:0.0008", 20_000, rng.New(3), topo.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]Engine{
		"clique-multinomial": NewCliqueMultinomial(dynamics.ThreeMajority{}, init),
		"clique-markov":      NewCliqueMarkov(dynamics.ThreeMajorityKeepOwn{}, init),
		"clique-sampled-w1":  NewCliqueSampled(dynamics.ThreeMajority{}, init, 1, 7),
		"clique-sampled-w4":  NewCliqueSampled(dynamics.ThreeMajority{}, init, 4, 7),
		"graph-clique-w4": NewGraphEngine(dynamics.ThreeMajority{},
			topo.NewComplete(20_000), init, 4, 11, nil),
		"graph-regular-w4": NewGraphEngine(dynamics.ThreeMajority{},
			topo.LegacyRandomRegular(20_000, 8, rng.New(2)), init, 4, 11, nil),
		"graph-csr-w4": NewGraphEngine(dynamics.ThreeMajority{},
			topo.RandomRegular("regular:8", 20_000, 8, rng.New(2)), init, 4, 11, nil),
		"graph-implicit-w4": NewGraphEngine(dynamics.ThreeMajority{},
			torus, initTorus, 4, 11, nil),
		"graph-mmap-w4": NewGraphEngine(dynamics.ThreeMajority{},
			mmapSrc, init, 4, 11, nil),
		// Every dispatch row of the graph loop: the skewed-degree batched
		// path and the serial fallbacks (flat and generic) for an
		// rng-consuming rule.
		"graph-gnp-w4": NewGraphEngine(dynamics.ThreeMajority{}, gnp, init, 4, 11, nil),
		"graph-csr-utie-serial-w4": NewGraphEngine(dynamics.ThreeMajority{UniformTie: true},
			topo.RandomRegular("regular:8", 20_000, 8, rng.New(2)), init, 4, 11, nil),
		"graph-implicit-utie-serial-w4": NewGraphEngine(dynamics.ThreeMajority{UniformTie: true},
			torus, initTorus, 4, 11, nil),
		"graph-csr-w4-k300": NewGraphEngine(dynamics.ThreeMajority{},
			topo.RandomRegular("regular:8", 20_000, 8, rng.New(2)), init16, 4, 11, nil),
		"graph-implicit-utie-serial-w4-k300": NewGraphEngine(dynamics.ThreeMajority{UniformTie: true},
			torus, initTorus16, 4, 11, nil),
		"undecided-exact": NewUndecidedExact(init),
	}
	for name, e := range cases {
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			e.Step(r) // warm up pools, lazy paths
			if a := testing.AllocsPerRun(20, func() { e.Step(r) }); a != 0 {
				t.Errorf("%s: steady-state Step allocates %.1f objects/op, want 0", name, a)
			}
		})
	}
}

// TestCloseStopsWorkers exercises explicit worker teardown; stepping after
// Close is forbidden, but Config and Repaint must still work.
func TestCloseStopsWorkers(t *testing.T) {
	init := colorcfg.Biased(1000, 4, 100)
	s := NewCliqueSampled(dynamics.ThreeMajority{}, init, 4, 3)
	s.Step(rng.New(1))
	s.Close()
	s.Close() // idempotent
	if s.Config().N() != 1000 {
		t.Error("Config broken after Close")
	}
	g := NewGraphEngine(dynamics.ThreeMajority{}, topo.NewComplete(1000), init, 4, 3, nil)
	g.Step(nil)
	g.Close()
	g.Close()
	if g.Config().N() != 1000 {
		t.Error("Config broken after Close")
	}
}

// ----- distribution cross-checks (DESIGN.md §5) -----
//
// On the clique with 3-majority, one round from configuration c produces
// C(t+1) ~ Multinomial(n, p(c)) in every engine, so the count of color 0
// after one round is marginally Binomial(n, p_0(c)). Each engine's one-round
// law is chi-square-tested against that exact marginal, which also proves
// the engines agree with one another in distribution.

// chiSquareCrit returns the α=0.001 critical value from the shared GOF
// toolkit (internal/stats).
func chiSquareCrit(df int) float64 {
	return stats.ChiSquareCritical(df, 0.001)
}

// oneRoundColor0 runs reps independent single rounds from init and returns
// the histogram of the color-0 count after the round.
func oneRoundColor0(t *testing.T, init colorcfg.Config, reps int, build func(rep int) Engine) []float64 {
	t.Helper()
	n := init.N()
	obs := make([]float64, n+1)
	for rep := 0; rep < reps; rep++ {
		e := build(rep)
		e.Step(rng.New(uint64(rep)*2654435761 + 1))
		c := e.Config()
		e.Close()
		if c.N() != n {
			t.Fatalf("rep %d: engine %s violated Σc = n: %d", rep, e.Name(), c.N())
		}
		obs[c[0]]++
	}
	return obs
}

func checkBinomialMarginal(t *testing.T, name string, obs []float64, n int64, p0 float64, reps int) {
	t.Helper()
	exp := make([]float64, n+1)
	for x := int64(0); x <= n; x++ {
		exp[x] = dist.BinomialPMF(n, x, p0) * float64(reps)
	}
	stat, df := stats.ChiSquareGOF(obs, exp)
	if df < 1 {
		t.Fatalf("%s: too few usable bins (df=%d)", name, df)
	}
	// α=0.001: each test rejects a correct engine with probability ~1e-3;
	// seeds are fixed so the outcome is deterministic.
	if crit := chiSquareCrit(df); stat > crit {
		t.Errorf("%s: one-round χ² = %.1f > crit %.1f (df=%d)", name, stat, crit, df)
	}
}

func TestEnginesAgreeInDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution cross-check is slow")
	}
	const reps = 6000
	init := colorcfg.Biased(300, 3, 30)
	probs := make([]float64, init.K())
	dynamics.ThreeMajority{}.AdoptionProbs(init, probs)
	p0 := probs[0]

	builds := map[string]func(rep int) Engine{
		"multinomial": func(rep int) Engine {
			return NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
		},
		"sampled-w1": func(rep int) Engine {
			return NewCliqueSampled(dynamics.ThreeMajority{}, init, 1, uint64(rep)*13+5)
		},
		"sampled-w3": func(rep int) Engine {
			return NewCliqueSampled(dynamics.ThreeMajority{}, init, 3, uint64(rep)*17+3)
		},
		"graph-clique": func(rep int) Engine {
			return NewGraphEngine(dynamics.ThreeMajority{}, topo.NewComplete(300),
				init, 1, uint64(rep)*29+7, nil)
		},
		// The opaque wrapper hides the topo.Complete concrete type, so the
		// engine takes the literal vertex-sampling path instead of the alias
		// fast path — keeping the agreement test an independent check of the
		// alias kernel rather than a self-comparison.
		"graph-clique-literal": func(rep int) Engine {
			return NewGraphEngine(dynamics.ThreeMajority{}, opaqueSource{topo.NewComplete(300)},
				init, 1, uint64(rep)*31+11, nil)
		},
	}
	histograms := map[string][]float64{}
	for name, build := range builds {
		obs := oneRoundColor0(t, init, reps, build)
		histograms[name] = obs
		checkBinomialMarginal(t, name, obs, init.N(), p0, reps)
	}

	// Direct two-sample check between the exact engine and the sampled one:
	// χ² over shared bins of the two histograms.
	a, b := histograms["multinomial"], histograms["sampled-w1"]
	var stat, ca, cb float64
	df := 0
	for i := range a {
		ca += a[i]
		cb += b[i]
		if ca+cb >= 10 {
			d := ca - cb
			stat += d * d / (ca + cb)
			df++
			ca, cb = 0, 0
		}
	}
	df--
	if df < 1 {
		t.Fatal("two-sample test degenerate")
	}
	if crit := chiSquareCrit(df); stat > crit {
		t.Errorf("multinomial vs sampled two-sample χ² = %.1f > crit %.1f (df=%d)", stat, crit, df)
	}
}

// TestSampledBatchBoundary covers shard/batch edge interactions: shards
// smaller than one batch, shards that are not batch multiples, and h that
// does not divide the batch size.
func TestSampledBatchBoundary(t *testing.T) {
	r := rng.New(2)
	for _, tc := range []struct {
		n       int64
		k       int
		workers int
		h       int
	}{
		{5, 2, 1, 3},
		{1025, 4, 2, 3}, // odd split, batch remainder
		{4096, 4, 3, 5}, // h=5 does not divide 1024
		{30, 3, 8, 7},   // shards of ~4 agents, buf capped by shard size
	} {
		var rule dynamics.Rule = dynamics.ThreeMajority{}
		if tc.h != 3 {
			rule = dynamics.NewHPlurality(tc.h)
		}
		e := NewCliqueSampled(rule, colorcfg.Biased(tc.n, tc.k, tc.n/5), tc.workers, 9)
		for i := 0; i < 10; i++ {
			e.Step(r)
			if got := e.Config().N(); got != tc.n {
				t.Fatalf("n=%d k=%d w=%d h=%d: population drifted to %d", tc.n, tc.k, tc.workers, tc.h, got)
			}
		}
		e.Close()
	}
}
