package validate

import (
	"bytes"
	"embed"
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// goldenFS embeds the committed traces so consumers outside the package
// directory (cmd/validate) can verify them from any working directory.
//
//go:embed testdata/golden
var goldenFS embed.FS

// GoldenBytes returns the committed golden trace for a spec name (as of
// build time; the test suite's -update-golden flag rewrites the source
// files, which are re-embedded on the next build).
func GoldenBytes(name string) ([]byte, error) {
	return goldenFS.ReadFile("testdata/golden/" + name + ".golden")
}

// GoldenSpec is one canonical seeded run whose full per-round count
// trajectory is committed under testdata/golden/. The statistical tier
// catches distributional drift; goldens catch *any* change to the
// sampling sequence — a reordered draw, a different batch size on a
// changed code path, an off-by-one in a worker shard — even when the
// new law is statistically identical. Engine worker counts are part of
// the spec (never derived from the host), so the bytes are reproducible
// on any machine and independent of test parallelism.
type GoldenSpec struct {
	// Name is the trace identity; the file is testdata/golden/<Name>.golden.
	Name string
	// NewEngine builds the engine; all randomness derives from r.
	NewEngine EngineFactory
	// Initial is the start configuration.
	Initial colorcfg.Config
	// Rounds is the number of recorded rounds (plus round 0).
	Rounds int
	// Seed drives the run.
	Seed uint64
}

// StandardGoldenSpecs covers every engine family and the rule zoo's
// representative members: the closed-form multinomial engine, the
// agent-sampling engine at one and two workers, the graph engine on the
// clique fast path / literal path / a random-regular topology, the
// Markov engine, and the undecided-state engines.
func StandardGoldenSpecs() []GoldenSpec {
	return []GoldenSpec{
		{
			Name: "multinomial-3majority-n120-k4",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			},
			Initial: colorcfg.Biased(120, 4, 24), Rounds: 25, Seed: 1001,
		},
		{
			Name: "multinomial-median-n100-k5",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewCliqueMultinomial(dynamics.Median{}, init)
			},
			Initial: colorcfg.Biased(100, 5, 10), Rounds: 20, Seed: 1002,
		},
		{
			Name: "sampled-w1-3majority-n80-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewCliqueSampled(dynamics.ThreeMajority{}, init, 1, r.Uint64())
			},
			Initial: colorcfg.Biased(80, 3, 16), Rounds: 18, Seed: 1003,
		},
		{
			Name: "sampled-w2-hplurality5-n60-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewCliqueSampled(dynamics.NewHPlurality(5), init, 2, r.Uint64())
			},
			Initial: colorcfg.Biased(60, 3, 12), Rounds: 15, Seed: 1004,
		},
		{
			Name: "graph-complete-w2-3majority-n64-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewGraphEngine(dynamics.ThreeMajority{},
					topo.NewComplete(init.N()), init, 2, r.Uint64(), nil)
			},
			Initial: colorcfg.Biased(64, 3, 12), Rounds: 15, Seed: 1005,
		},
		{
			Name: "graph-literal-w1-3majority-n48-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				return engine.NewGraphEngine(dynamics.ThreeMajority{},
					opaqueGraph{topo.NewComplete(init.N())}, init, 1, r.Uint64(), nil)
			},
			Initial: colorcfg.Biased(48, 3, 9), Rounds: 12, Seed: 1006,
		},
		{
			Name: "graph-regular8-w2-3majority-n64-k4",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				layout := rng.New(r.Uint64())
				return engine.NewGraphEngine(dynamics.ThreeMajority{},
					topo.LegacyRandomRegular(init.N(), 8, rng.New(r.Uint64())), init, 2, r.Uint64(), layout)
			},
			Initial: colorcfg.Biased(64, 4, 16), Rounds: 15, Seed: 1007,
		},
		{
			Name: "graph-smallworld-w2-3majority-n64-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				g, err := topo.BuildSource("smallworld:6:0.2", init.N(), rng.New(r.Uint64()), topo.BuildOpts{})
				if err != nil {
					panic(fmt.Sprintf("golden smallworld build: %v", err))
				}
				layout := rng.New(r.Uint64())
				return engine.NewGraphEngine(dynamics.ThreeMajority{}, g, init, 2, r.Uint64(), layout)
			},
			Initial: colorcfg.Biased(64, 3, 12), Rounds: 15, Seed: 1011,
		},
		{
			// The implicit-backend golden: the torus is sampled functionally
			// (topo.ModeImplicit, nothing materialized), pinning the
			// NeighborSource rng contract for the zero-memory path. The
			// backend-identity certification (CheckGraphContract) proves the
			// CSR and mmap backends reproduce these same bytes.
			Name: "graph-torus-implicit-w2-3majority-n512-k3",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				g, err := topo.BuildSource("torus:3", init.N(), nil, topo.BuildOpts{Mode: topo.ModeImplicit})
				if err != nil {
					panic(fmt.Sprintf("golden implicit torus build: %v", err))
				}
				layout := rng.New(r.Uint64())
				return engine.NewGraphEngine(dynamics.ThreeMajority{}, g, init, 2, r.Uint64(), layout)
			},
			Initial: colorcfg.Biased(512, 3, 96), Rounds: 15, Seed: 1012,
		},
		{
			// The batch-sampler golden: pins the *relaxed* draw discipline
			// (bulk block draws, no rejection sampling, draws completed per
			// block before the rule applications consume the stream). The
			// uniform-tie rule is deliberate — it draws from the same rng
			// during Apply, so any change to block sizing or draw/apply
			// interleaving moves these bytes even when the per-draw law is
			// unchanged. Degree 6 is not a power of two, so the no-rejection
			// fast draw is exercised rather than the shift identity.
			Name: "graph-regular6-w2-3majorityutie-batch-n64-k4",
			NewEngine: func(init colorcfg.Config, r *rng.Rand) engine.Engine {
				layout := rng.New(r.Uint64())
				return engine.NewGraphEngineOpts(dynamics.ThreeMajority{UniformTie: true},
					topo.LegacyRandomRegular(init.N(), 6, rng.New(r.Uint64())), init, 2, r.Uint64(), layout,
					engine.GraphOpts{Sampler: engine.SamplerBatch})
			},
			Initial: colorcfg.Biased(64, 4, 16), Rounds: 15, Seed: 1013,
		},
		{
			Name: "markov-2choiceskeepown-n90-k3",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewCliqueMarkov(dynamics.TwoChoicesKeepOwn{}, init)
			},
			Initial: colorcfg.Biased(90, 3, 30), Rounds: 20, Seed: 1008,
		},
		{
			Name: "undecided-exact-n100-k4",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewUndecidedExact(init)
			},
			Initial: colorcfg.Biased(100, 4, 25), Rounds: 20, Seed: 1009,
		},
		{
			Name: "undecided-population-n80-k3",
			NewEngine: func(init colorcfg.Config, _ *rng.Rand) engine.Engine {
				return engine.NewUndecidedPopulation(init)
			},
			Initial: colorcfg.Biased(80, 3, 20), Rounds: 15, Seed: 1010,
		},
	}
}

// TraceBytes executes the spec and renders the canonical byte form:
// a header line followed by one tab-separated line per round (round 0 is
// the initial configuration) listing the color counts. The bytes are a
// pure function of the spec.
func TraceBytes(spec GoldenSpec) []byte {
	r := rng.New(spec.Seed)
	e := spec.NewEngine(spec.Initial.Clone(), r)
	defer e.Close()
	b := traceHeader(spec, e.Config())
	for t := 1; t <= spec.Rounds; t++ {
		e.Step(r)
		writeTraceRound(b, t, e.Config())
	}
	return b.Bytes()
}

// TraceBytesObserved renders the same byte form, but drives the rounds
// through core.Run with o attached as its Observer — the production hook
// path — and writes each round from the configuration the observer is
// handed. Because observers are handed no rng (obs.Observer's
// contract), the returned bytes must equal TraceBytes(spec) for every
// spec — the certification the golden suite runs over all committed
// traces to pin the zero-cost-when-off telemetry contract.
func TraceBytesObserved(spec GoldenSpec, o obs.Observer) []byte {
	r := rng.New(spec.Seed)
	e := spec.NewEngine(spec.Initial.Clone(), r)
	defer e.Close()
	b := traceHeader(spec, e.Config())
	core.Run(e, core.Options{
		MaxRounds: spec.Rounds,
		Stop:      func(colorcfg.Config, int) bool { return false },
		Rand:      r,
		Observer: obs.ObserverFunc(func(round int, n, wallNs int64, c colorcfg.Config) {
			writeTraceRound(b, round, c)
			o.ObserveRound(round, n, wallNs, c)
		}),
	})
	return b.Bytes()
}

// traceHeader starts a trace: the header line and round 0.
func traceHeader(spec GoldenSpec, initial colorcfg.Config) *bytes.Buffer {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# golden %s n=%d k=%d seed=%d rounds=%d\n",
		spec.Name, spec.Initial.N(), spec.Initial.K(), spec.Seed, spec.Rounds)
	writeTraceRound(&b, 0, initial)
	return &b
}

func writeTraceRound(b *bytes.Buffer, round int, c colorcfg.Config) {
	fmt.Fprintf(b, "%d", round)
	for _, v := range c {
		fmt.Fprintf(b, "\t%d", v)
	}
	b.WriteByte('\n')
}
