// Package spec is the one place that knows how a run spec becomes a run:
// the rule × engine table, the bias parser, graph building, engine
// construction and the Monte Carlo replicate closure. cmd/plurality,
// cmd/sweep and internal/service decode their own flags or JSON, apply
// their own policy (caps, run identity, seed derivation) and do their own
// I/O around it.
package spec

import (
	"fmt"
	"strconv"
	"sync"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// Spec describes one run: which dynamics, on which engine and topology,
// from which biased start.
type Spec struct {
	// Rule is the dynamics: a dynamics.ParseRule name, or one of the
	// stateful rules undecided | 2choices-keepown.
	Rule string
	// Engine is auto | multinomial | sampled | graph | population.
	Engine string
	// Graph is the internal/topo registry spec; only Engine == "graph"
	// reads it.
	Graph string
	// N is the number of agents, K the number of colors.
	N int64
	K int
	// Bias is the initial additive bias toward color 0 (see ParseBias).
	Bias int64
}

// Resolved is a Spec that passed Resolve: Engine names the concrete
// engine and the rule is parsed.
type Resolved struct {
	Spec
	rule dynamics.Rule // nil for the stateful rules
}

// ParseBias parses a bias argument: "auto" is the Corollary 1 threshold
// (clamped at n), anything else an integer in [0, n].
func ParseBias(s string, n int64, k int) (int64, error) {
	if s == "auto" {
		return core.Corollary1Bias(n, k, 1.0), nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad bias %q (want \"auto\" or an integer)", s)
	}
	if v < 0 || v > n {
		return 0, fmt.Errorf("bias %d outside [0, n=%d]", v, n)
	}
	return v, nil
}

// Resolve checks the rule × engine pair and returns the spec with Engine
// made concrete. The stateful rules undecided and 2choices-keepown carry
// their own engines (named after the rule) and accept only "auto"; "auto"
// otherwise picks multinomial for rules with closed-form adoption
// probabilities (dynamics.ProbModel) and sampled for the rest. A graph
// spec is checked against N through topo.Validate. Resolve does not
// range-check N, K or Bias: each surface applies its own limits.
func (s Spec) Resolve() (Resolved, error) {
	if s.Rule == "undecided" || s.Rule == "2choices-keepown" {
		if s.Engine != "auto" {
			return Resolved{}, fmt.Errorf("rule %q carries its own engine; use engine \"auto\"", s.Rule)
		}
		s.Engine = s.Rule
		return Resolved{Spec: s}, nil
	}
	rule, err := dynamics.ParseRule(s.Rule)
	if err != nil {
		return Resolved{}, err
	}
	_, isProb := rule.(dynamics.ProbModel)
	if s.Engine == "auto" {
		s.Engine = "sampled"
		if isProb {
			s.Engine = "multinomial"
		}
	}
	switch s.Engine {
	case "multinomial":
		if !isProb {
			return Resolved{}, fmt.Errorf("rule %q has no closed-form adoption probabilities; use engine \"sampled\"", s.Rule)
		}
	case "sampled", "population":
	case "graph":
		if err := topo.Validate(s.Graph, s.N); err != nil {
			return Resolved{}, err
		}
	default:
		return Resolved{}, fmt.Errorf("unknown engine %q", s.Engine)
	}
	return Resolved{Spec: s, rule: rule}, nil
}

// RuleName is the dynamics' display name (dynamics.Rule.Name), or the
// Rule field itself for the stateful rules.
func (r Resolved) RuleName() string {
	if r.rule == nil {
		return r.Rule
	}
	return r.rule.Name()
}

// BuildSource builds the spec's topology. All randomness comes from rnd
// (see topo.BuildSource for the backend modes and the mmap cache).
func (r Resolved) BuildSource(rnd *rng.Rand, opts topo.BuildOpts) (topo.NeighborSource, error) {
	return topo.BuildSource(r.Graph, r.N, rnd, opts)
}

// NewEngine builds the engine from the biased start. g is the topology
// of the graph engine (ignored elsewhere); workers and seed drive the
// sampled and graph engines; rnd is the graph engine's layout generator.
func (r Resolved) NewEngine(g topo.NeighborSource, workers int, seed uint64, rnd *rng.Rand) engine.Engine {
	init := colorcfg.Biased(r.N, r.K, r.Bias)
	switch r.Engine {
	case "undecided":
		return engine.NewUndecidedExact(init)
	case "2choices-keepown":
		return engine.NewCliqueMarkov(dynamics.TwoChoicesKeepOwn{}, init)
	case "multinomial":
		return engine.NewCliqueMultinomial(r.rule, init)
	case "sampled":
		return engine.NewCliqueSampled(r.rule, init, workers, seed)
	case "population":
		return engine.NewPopulation(r.rule, init)
	case "graph":
		return engine.NewGraphEngine(r.rule, g, init, workers, seed, rnd)
	}
	panic(fmt.Sprintf("spec: NewEngine on unresolved engine %q", r.Engine))
}

// Job compiles the spec into an mc.Job. Replicate i runs on its private
// generator rng.New(seed_i) and nothing else: the sampled and graph
// engines draw their seed from it first, the graph engine's layout
// shuffle and the rounds follow. Replicates already fan out across the
// pool, so each engine runs single-worker.
//
// graph supplies the graph engine's quenched topology. It is called at
// most once, by the first replicate that needs it (off the admission
// path), and every replicate shares the result: generation can dominate
// a short job, and the structure is read-only during stepping. The spec
// was validated, so a graph error panics.
//
// obsFor, if non-nil, hands each replicate an observer keyed by its
// seed; observers consume no randomness, so the records do not change.
func (r Resolved) Job(name string, seed uint64, reps, maxRounds int,
	graph func() (topo.NeighborSource, error), obsFor func(seed uint64) obs.Observer) mc.Job {
	var shared func() topo.NeighborSource
	if r.Engine == "graph" {
		build := sync.OnceValues(graph)
		shared = func() topo.NeighborSource {
			g, err := build()
			if err != nil {
				panic(fmt.Sprintf("spec: building graph %q for %s: %v", r.Graph, name, err))
			}
			return g
		}
	}
	drawsSeed := r.Engine == "sampled" || r.Engine == "graph"
	return mc.Job{
		Name:       name,
		Seed:       seed,
		Replicates: reps,
		MaxRounds:  maxRounds,
		New: func(seed uint64) mc.Run {
			return func() mc.Record {
				rnd := rng.New(seed)
				var g topo.NeighborSource
				if shared != nil {
					g = shared()
				}
				var engSeed uint64
				if drawsSeed {
					engSeed = rnd.Uint64()
				}
				e := r.NewEngine(g, 1, engSeed, rnd)
				defer e.Close()
				opts := core.Options{MaxRounds: maxRounds, Rand: rnd}
				if obsFor != nil {
					opts.Observer = obsFor(seed)
				}
				res := core.Run(e, opts)
				return mc.Record{Rounds: res.Rounds, Success: res.WonInitialPlurality}
			}
		},
	}
}
