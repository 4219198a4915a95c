// Benchmark harness: one testing.B benchmark per reproduced table/figure
// (E1–E19, quick profile — run cmd/experiments -profile full for the
// heavyweight numbers; the committed EXPERIMENTS.md is the quick profile)
// plus engine micro-benchmarks for the ablations called out in
// DESIGN.md §5.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkE5 -benchtime=1x
package plurality_test

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/expt"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// benchProfile keeps per-iteration time moderate; experiments are whole
// sweeps, so -benchtime=1x is the intended usage.
var benchProfile = expt.Profile{Name: "bench", N: 10_000, Reps: 4}

func benchExperiment(b *testing.B, id string) {
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(benchProfile, uint64(2014+i))
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no data", id)
		}
	}
}

func BenchmarkE1UpperBound(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2Polylog(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3LowerBound(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4RuleZoo(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5HPlurality(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6BiasTightness(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7MedianGap(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8Adversary(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9Phases(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10Polling(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11Undecided(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12Drift(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13KeepOwn(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Topologies(b *testing.B)   { benchExperiment(b, "E14") }
func BenchmarkE15Ablations(b *testing.B)    { benchExperiment(b, "E15") }
func BenchmarkE16Asynchronous(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17ExactChain(b *testing.B)   { benchExperiment(b, "E17") }
func BenchmarkE18MeanField(b *testing.B)    { benchExperiment(b, "E18") }
func BenchmarkE19Faults(b *testing.B)       { benchExperiment(b, "E19") }

// ----- engine micro-benchmarks (ablations of DESIGN.md §5) -----

// BenchmarkEngineMultinomialRound measures the exact O(k) engine: one
// transient round at n = 10^6 for growing k. The configuration is restored
// before every Step — without the reset the chain absorbs within ~30
// rounds and the remaining iterations would measure the degenerate
// monochromatic round (one p=1 binomial) instead of k live binomial draws.
func BenchmarkEngineMultinomialRound(b *testing.B) {
	for _, k := range []int{2, 16, 128, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			r := rng.New(1)
			init := colorcfg.Biased(1_000_000, k, 10_000)
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SetConfig(init)
				e.Step(r)
			}
		})
	}
}

// BenchmarkEngineMultinomialRoundN fixes k and scales n across three
// orders of magnitude: the conditional-binomial multinomial sampler makes a
// round O(k) with n entering only through O(1) rejection sampling, so
// per-round time must be flat in n (the acceptance gate of DESIGN.md §5
// asks for 10^6 vs 10^9 within 2x).
func BenchmarkEngineMultinomialRoundN(b *testing.B) {
	for _, n := range []int64{1_000_000, 100_000_000, 1_000_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(1)
			init := colorcfg.Biased(n, 16, n/100)
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SetConfig(init) // keep every measured round transient
				e.Step(r)
			}
		})
	}
}

// BenchmarkEngineSampledRound measures the agent-sampling engine at
// n = 100k across worker counts (parallel scaling ablation).
func BenchmarkEngineSampledRound(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			r := rng.New(1)
			e := engine.NewCliqueSampled(dynamics.ThreeMajority{},
				colorcfg.Biased(100_000, 16, 1_000), workers, 7)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step(r)
			}
		})
	}
}

// BenchmarkEngineGraphRound measures the per-vertex engine on the clique
// (alias fast path) and on a random 8-regular CSR (direct-slice fast
// path).
func BenchmarkEngineGraphRound(b *testing.B) {
	const n = 100_000
	layout := rng.New(3)
	builders := []struct {
		name string
		g    topo.NeighborSource
	}{
		{"clique", topo.NewComplete(n)},
		{"8-regular-csr", topo.RandomRegular("regular:8", n, 8, rng.New(2))},
	}
	for _, tc := range builders {
		b.Run(tc.name, func(b *testing.B) {
			e := engine.NewGraphEngine(dynamics.ThreeMajority{}, tc.g,
				colorcfg.Biased(n, 8, 1_000), 4, 11, layout)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step(nil)
			}
		})
	}
}

// BenchmarkEngineGraphRoundSparse scales the CSR-sharded graph engine to
// large sparse topologies: one synchronous 3-majority round on a random
// 8-regular graph at n = 10⁶ and the headline n = 10⁷ (offsets + neighbors
// ≈ 400 MB, double-buffered uint8 colors 20 MB — comfortably inside 2 GB;
// the legacy engine path topped out around 10⁵).
func BenchmarkEngineGraphRoundSparse(b *testing.B) {
	for _, n := range []int64{1_000_000, 10_000_000} {
		g := topo.RandomRegular("regular:8", n, 8, rng.New(4))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSparseRound(b, g, 8)
		})
	}
}

// BenchmarkEngineGraphRoundSparseWide is the n = 10⁷ sparse round at
// k = 1024, so the engine stores uint16 colors: the price of the wider
// gather against BenchmarkEngineGraphRoundSparse's uint8 row. It is a
// separate benchmark so the CI name matches on the k = 8 rows stay valid.
func BenchmarkEngineGraphRoundSparseWide(b *testing.B) {
	const n = 10_000_000
	benchSparseRound(b, topo.RandomRegular("regular:8", n, 8, rng.New(4)), 1024)
}

// benchSparseRound times 3-majority rounds on g with k colors and 4
// workers, reporting ns/agent.
func benchSparseRound(b *testing.B, g topo.NeighborSource, k int) {
	n := g.N()
	e := engine.NewGraphEngine(dynamics.ThreeMajority{}, g,
		colorcfg.Biased(n, k, n/100), 4, 17, rng.New(5))
	defer e.Close()
	// Two untimed rounds write both color buffers, so first-touch page
	// faults stay out of the timed rounds.
	e.Step(nil)
	e.Step(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(nil)
	}
	// ns/agent is the unit the CI perf budget is written in (the ROADMAP
	// target is <= 25 ns/agent·core at n = 10⁷).
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/agent")
}

// BenchmarkEngineGraphRoundSparseObserved re-runs the headline n = 10⁷
// sparse round through core.Run with an obs.Recorder attached: the price
// of telemetry on the hottest path, measured on the hook path production
// runs take. The observer fires once per round, outside the per-agent
// loops, so this must track BenchmarkEngineGraphRoundSparse's
// n=10000000 row within the CI overhead budget (≤ 2%, warn-only).
func BenchmarkEngineGraphRoundSparseObserved(b *testing.B) {
	const n = 10_000_000
	g := topo.RandomRegular("regular:8", n, 8, rng.New(4))
	e := engine.NewGraphEngine(dynamics.ThreeMajority{}, g,
		colorcfg.Biased(n, 8, n/100), 4, 17, rng.New(5))
	defer e.Close()
	rec := &obs.Recorder{}
	rounds := func(m int) {
		core.Run(e, core.Options{
			MaxRounds: m,
			Stop:      func(colorcfg.Config, int) bool { return false },
			Rand:      rng.New(6),
			Observer:  rec,
		})
	}
	// One untimed round absorbs the first-Step warm-up (page faults on
	// the fresh CSR, the recorder's one-time ring allocation) so the
	// samples measure the steady state the ≤2% overhead budget is
	// written against.
	rounds(1)
	b.ReportAllocs()
	b.ResetTimer()
	rounds(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/agent")
	if rec.Total() != b.N+1 {
		b.Fatalf("observer saw %d rounds, want %d", rec.Total(), b.N+1)
	}
}

// BenchmarkEngineGraphRoundImplicit measures the zero-materialization
// backend: one synchronous 3-majority round on an implicit 3-torus at
// n = 10⁶ (100³). Nothing but the color arrays exists in memory — this is
// the per-round cost model for the n = 10⁹ regime, where adjacency would
// be 48 GB as a CSR but is 0 B here.
func BenchmarkEngineGraphRoundImplicit(b *testing.B) {
	const n = 1_000_000 // 100³
	src, err := topo.BuildSource("torus:3", n, nil, topo.BuildOpts{Mode: topo.ModeImplicit})
	if err != nil {
		b.Fatal(err)
	}
	e := engine.NewGraphEngine(dynamics.ThreeMajority{}, src,
		colorcfg.Biased(n, 8, n/100), 4, 19, rng.New(6))
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(nil)
	}
}

// BenchmarkEngineGraphRoundMmap measures the disk-backed backend: the same
// 8-regular n = 10⁶ workload as the Sparse bench, but served from a
// memory-mapped CSR file instead of heap slices — the generic sampling
// path plus page-cache reads, the cost model for graphs bigger than RAM.
func BenchmarkEngineGraphRoundMmap(b *testing.B) {
	const n = 1_000_000
	path := filepath.Join(b.TempDir(), "regular8.csr")
	src, err := topo.BuildSource("regular:8", n, rng.New(4),
		topo.BuildOpts{Mode: topo.ModeMmap, Path: path})
	if err != nil {
		b.Fatal(err)
	}
	defer src.(io.Closer).Close()
	e := engine.NewGraphEngine(dynamics.ThreeMajority{}, src,
		colorcfg.Biased(n, 8, n/100), 4, 17, rng.New(5))
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(nil)
	}
}

// BenchmarkEngineUndecidedRound measures the exact undecided-state engine.
func BenchmarkEngineUndecidedRound(b *testing.B) {
	r := rng.New(1)
	e := engine.NewUndecidedExact(colorcfg.Biased(1_000_000, 64, 10_000))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Step(r)
	}
}

// BenchmarkTieBreakVariants compares the two tie-break implementations
// (the paper notes they realize the same process; the bench shows the
// uniform variant's extra randomness cost).
func BenchmarkTieBreakVariants(b *testing.B) {
	for name, rule := range map[string]dynamics.Rule{
		"first":   dynamics.ThreeMajority{},
		"uniform": dynamics.ThreeMajority{UniformTie: true},
	} {
		b.Run(name, func(b *testing.B) {
			r := rng.New(1)
			s := []colorcfg.Color{3, 1, 2}
			var sink colorcfg.Color
			for i := 0; i < b.N; i++ {
				sink += rule.Apply(s, r)
			}
			_ = sink
		})
	}
}

// BenchmarkFullRunConvergence measures an end-to-end Run to consensus at
// n = 10^6 (the headline workload of examples/quickstart).
func BenchmarkFullRunConvergence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := int64(1_000_000)
		init := colorcfg.Biased(n, 16, core.Corollary1Bias(n, 16, 1.0))
		e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
		res := core.Run(e, core.Options{MaxRounds: 10_000, Rand: rng.New(uint64(i))})
		if !res.WonInitialPlurality {
			b.Fatal("benchmark run failed to converge")
		}
	}
}
