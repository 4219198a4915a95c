package service

import (
	"errors"
	"fmt"
	"math"
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

// Resource caps enforced by JobSpec.Validate. They bound what a single
// request can pin in memory or burn in CPU, so a hostile or typo'd spec
// is rejected at admission instead of wedging the shared worker pool.
const (
	// MaxK bounds the number of colors (the engines hold O(k) state per
	// replicate; the alias tables are rebuilt per round).
	MaxK = 4096
	// MaxReplicates bounds the Monte Carlo fan-out of one job.
	MaxReplicates = 100_000
	// MaxMaxRounds bounds the per-replicate round budget.
	MaxMaxRounds = 10_000_000
	// MaxNExact bounds n for the O(k)-per-round count-based engines
	// (multinomial, markov, undecided): n only enters the arithmetic, so
	// the bound is generous.
	MaxNExact = 1_000_000_000
	// MaxNSampled bounds n for the O(n)-per-round agent-level engines
	// (sampled, population).
	MaxNSampled = 100_000_000
	// MaxNGraph bounds n for the graph engine on materialized families,
	// which hold the full adjacency in RAM; the per-family adjacency memory
	// is capped separately by topo.MaxAdjEntries inside the registry
	// validation. The CSR-sharded engine sustains rounds at this scale in
	// well under 2 GB; its color buffers take 20 MB at k ≤ 256 (uint8)
	// and 40 MB at k ≤ MaxK (uint16).
	MaxNGraph = 10_000_000
	// MaxNGraphImplicit bounds n for the graph engine on implicit families
	// (topo.IsImplicit: complete, cycle, star, torus, hypercube), whose
	// neighbors are computed rather than stored — the only per-agent memory
	// is the two color buffers, so the cap matches the exact engines'. At
	// n = 10⁹ those buffers come to about 2 GB per replicate at k ≤ 256
	// (uint8 colors) and 4 GB at k ≤ MaxK (uint16); computed from the
	// widths, not measured.
	MaxNGraphImplicit = 1_000_000_000
	// DefaultMaxRounds is applied when a spec omits max_rounds.
	DefaultMaxRounds = 200_000
)

// JobSpec is the wire format of one simulation job: the same knobs the
// cmd/plurality and cmd/sweep CLIs expose, as a JSON object. The zero
// value of every optional field means "default" (see Normalize).
//
// Determinism contract: the per-replicate records of a job are a pure
// function of the spec — replicate i runs on rng.New(mc.RepSeeds(Seed,
// Replicates)[i]) and nothing else — so resubmitting a spec yields
// byte-identical JSONL regardless of the server's worker count, executor
// count, or scheduling.
type JobSpec struct {
	// Rule is the dynamics: 3majority | 3majority-utie | median | polling |
	// 2choices | hplurality:H | 2choices-keepown | undecided.
	Rule string `json:"rule,omitempty"`
	// Engine is the simulation engine: auto | multinomial | sampled |
	// graph | population. The stateful rules (2choices-keepown, undecided)
	// carry their own engines and require auto.
	Engine string `json:"engine,omitempty"`
	// Graph is the topology spec for Engine == "graph", resolved through
	// the internal/topo registry (topo.FamilyUsages lists the families:
	// complete, cycle, star, torus[:DIMS], hypercube, regular:D, gnp:P,
	// smallworld:K:BETA, ba:M, sbm:B:PIN:POUT, barbell:D).
	Graph string `json:"graph,omitempty"`
	// GraphSeed seeds the topology generator for Engine == "graph". All
	// replicates of a job share the one graph built from it (quenched
	// randomness: the Monte Carlo averages over process noise on a fixed
	// structure). Zero means "derive from Seed" (see Normalize).
	GraphSeed uint64 `json:"graph_seed,omitempty"`
	// N is the number of agents.
	N int64 `json:"n"`
	// K is the number of colors.
	K int `json:"k"`
	// Bias is the initial additive bias toward color 0: a non-negative
	// integer, or "auto" for the Corollary 1 threshold.
	Bias string `json:"bias,omitempty"`
	// Replicates is the number of independent Monte Carlo executions.
	Replicates int `json:"replicates,omitempty"`
	// Seed is the base seed all replicate seeds derive from.
	Seed uint64 `json:"seed"`
	// MaxRounds is the per-replicate round budget.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Sampler names the graph engine's rng draw discipline. It is accepted
	// only as "default" (what Normalize fills in); the retired "batch"
	// discipline, or any other value, fails Validate with
	// ErrUnsupportedSampler. The field stays so that old specs and
	// journals decode and fail with that typed error instead of being
	// silently run under the default discipline.
	Sampler string `json:"sampler,omitempty"`
	// Trace enables run-level telemetry capture: the first replicates of
	// the job run with an obs.Recorder attached and their JSONL traces are
	// served by GET /v1/jobs/{id}/trace. Tracing never influences the
	// records (observers consume zero rng — see internal/obs), so Trace is
	// deliberately excluded from Name(): a traced job's record stream is
	// byte-identical to the untraced submission. Traces live in memory
	// only — they are not journaled, and a crash-resumed job does not
	// recreate the prefix it adopted.
	Trace bool `json:"trace,omitempty"`
}

// Normalize fills defaulted fields in place. It is idempotent and must be
// called before Validate.
func (s *JobSpec) Normalize() {
	if s.Rule == "" {
		s.Rule = "3majority"
	}
	if s.Engine == "" {
		s.Engine = "auto"
	}
	if s.Graph == "" {
		s.Graph = "complete"
	}
	if s.GraphSeed == 0 {
		s.GraphSeed = s.Seed
	}
	if s.Bias == "" {
		s.Bias = "auto"
	}
	if s.Replicates == 0 {
		s.Replicates = 1
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = DefaultMaxRounds
	}
	if s.Sampler == "" {
		s.Sampler = "default"
	}
}

// ErrUnsupportedSampler is the Validate error for a Sampler other than
// "default" (match it with errors.Is).
var ErrUnsupportedSampler = errors.New("unsupported sampler")

// statefulEngines maps the rules that carry their own engine and accept
// only Engine == "auto".
var statefulEngines = map[string]bool{"undecided": true, "2choices-keepown": true}

// resolveEngine maps Engine == "auto" to the concrete engine for the rule
// and checks rule/engine compatibility.
func (s *JobSpec) resolveEngine() (string, error) {
	if statefulEngines[s.Rule] {
		if s.Engine != "auto" {
			return "", fmt.Errorf("rule %q carries its own engine; use engine \"auto\"", s.Rule)
		}
		return s.Rule, nil
	}
	rule, err := dynamics.ParseRule(s.Rule)
	if err != nil {
		return "", err
	}
	_, isProb := rule.(dynamics.ProbModel)
	eng := s.Engine
	if eng == "auto" {
		if isProb {
			eng = "multinomial"
		} else {
			eng = "sampled"
		}
	}
	switch eng {
	case "multinomial":
		if !isProb {
			return "", fmt.Errorf("rule %q has no closed-form adoption probabilities; use engine \"sampled\"", s.Rule)
		}
	case "sampled", "population":
	case "graph":
		if err := s.checkGraph(); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("unknown engine %q", s.Engine)
	}
	return eng, nil
}

// graphMaxN is the n cap for the spec's graph family: implicit families
// carry no adjacency and get the generous cap; anything else (including an
// unknown family — topo.Validate reports those) gets the materialized cap.
func (s *JobSpec) graphMaxN() int64 {
	if implicit, err := topo.IsImplicit(s.Graph); err == nil && implicit {
		return MaxNGraphImplicit
	}
	return MaxNGraph
}

// checkGraph validates the Graph field through the topo registry so a bad
// topology is a 400, not a crash. The n cap comes first: it bounds every
// number the registry's constant-time validation arithmetic sees, so a
// hostile spec can neither overflow nor spin. A registry size-cap
// rejection (topo.ErrTooLarge) gets a remediation hint appended — the
// client asked for something well-formed that simply does not fit in RAM.
func (s *JobSpec) checkGraph() error {
	if maxN := s.graphMaxN(); s.N < 1 || s.N > maxN {
		return fmt.Errorf("graph engine needs n in [1, %d] for family %q, got %d", maxN, s.Graph, s.N)
	}
	if err := topo.Validate(s.Graph, s.N); err != nil {
		if errors.Is(err, topo.ErrTooLarge) {
			return fmt.Errorf("%w (hint: use an implicit family — complete, cycle, star, torus, hypercube — which materializes nothing, or build the graph to disk and run it with mmap mode via cmd/plurality -graph-mode mmap)", err)
		}
		return err
	}
	return nil
}

// biasValue parses the Bias field; "auto" resolves to the Corollary 1
// threshold clamped to n (tiny populations can sit below the threshold).
func (s *JobSpec) biasValue() (int64, error) {
	if s.Bias == "auto" {
		b := core.Corollary1Bias(s.N, s.K, 1.0)
		if b > s.N {
			b = s.N
		}
		return b, nil
	}
	v, err := strconv.ParseInt(s.Bias, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad bias %q (want \"auto\" or an integer)", s.Bias)
	}
	if v < 0 || v > s.N {
		return 0, fmt.Errorf("bias %d outside [0, n=%d]", v, s.N)
	}
	return v, nil
}

// Validate checks the (normalized) spec against the engine and graph
// preconditions and the service resource caps. All problems are reported
// at once, joined into one error.
func (s *JobSpec) Validate() error {
	var errs []error
	if s.N < 1 {
		errs = append(errs, fmt.Errorf("n must be >= 1, got %d", s.N))
	}
	if s.K < 2 || s.K > MaxK {
		errs = append(errs, fmt.Errorf("k must be in [2, %d], got %d", MaxK, s.K))
	}
	if s.Replicates < 1 || s.Replicates > MaxReplicates {
		errs = append(errs, fmt.Errorf("replicates must be in [1, %d], got %d", MaxReplicates, s.Replicates))
	}
	if s.MaxRounds < 1 || s.MaxRounds > MaxMaxRounds {
		errs = append(errs, fmt.Errorf("max_rounds must be in [1, %d], got %d", MaxMaxRounds, s.MaxRounds))
	}
	if s.N >= 1 {
		if _, err := s.biasValue(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.Sampler != "default" {
		errs = append(errs, fmt.Errorf("%w %q (only \"default\" remains)", ErrUnsupportedSampler, s.Sampler))
	}
	eng, err := s.resolveEngine()
	if err != nil {
		errs = append(errs, err)
	} else if s.N >= 1 {
		maxN := int64(MaxNExact)
		switch eng {
		case "sampled", "population":
			maxN = MaxNSampled
		case "graph":
			maxN = s.graphMaxN()
		}
		if s.N > maxN {
			errs = append(errs, fmt.Errorf("n = %d exceeds the %s-engine cap %d", s.N, eng, maxN))
		}
	}
	if s.K >= 2 && s.N >= 1 && int64(s.K) > s.N {
		errs = append(errs, fmt.Errorf("k = %d exceeds n = %d", s.K, s.N))
	}
	return errors.Join(errs...)
}

// Name is the canonical job identifier stored in every mc.Record. It
// covers every spec field that influences the records, so two JSONL
// streams with equal names are byte-identical.
func (s *JobSpec) Name() string {
	eng, err := s.resolveEngine()
	if err != nil {
		eng = "invalid"
	}
	name := fmt.Sprintf("%s/%s/n=%d/k=%d/bias=%s/rounds=%d/seed=%d",
		s.Rule, eng, s.N, s.K, s.Bias, s.MaxRounds, s.Seed)
	if eng == "graph" {
		// The generator seed is part of the identity: the same spec with
		// a different graph_seed runs on a different quenched topology.
		name = fmt.Sprintf("%s/graph=%s/gseed=%d", name, s.Graph, s.GraphSeed)
	}
	return name
}

// Cost estimates the total work of the job in "agent updates" — the unit
// the sync/async routing threshold is expressed in. Count-based engines
// advance a whole round in O(k); agent-based engines touch all n agents.
// The product saturates at MaxInt64 instead of wrapping, so a huge (but
// individually-capped) spec can never route onto the synchronous path.
func (s *JobSpec) Cost() int64 {
	perRound := int64(s.K)
	if eng, err := s.resolveEngine(); err == nil && (eng == "sampled" || eng == "graph" || eng == "population") {
		perRound = s.N
	}
	cost := float64(s.Replicates) * float64(s.MaxRounds) * float64(perRound)
	if cost >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(cost)
}

// buildEngine constructs the replicate's engine. The spec must have
// passed Validate; r is the replicate's private generator (graph layout
// and engine seeds draw from it, keeping the replicate a pure function of
// its seed), and g is the job's shared quenched topology (nil for
// non-graph engines).
func (s *JobSpec) buildEngine(init colorcfg.Config, g topo.NeighborSource, r *rng.Rand) engine.Engine {
	if s.Rule == "undecided" {
		return engine.NewUndecidedExact(init)
	}
	if s.Rule == "2choices-keepown" {
		return engine.NewCliqueMarkov(dynamics.TwoChoicesKeepOwn{}, init)
	}
	rule, err := dynamics.ParseRule(s.Rule)
	if err != nil {
		panic(fmt.Sprintf("service: buildEngine on unvalidated spec: %v", err))
	}
	eng, err := s.resolveEngine()
	if err != nil {
		panic(fmt.Sprintf("service: buildEngine on unvalidated spec: %v", err))
	}
	switch eng {
	case "multinomial":
		return engine.NewCliqueMultinomial(rule, init)
	case "sampled":
		// Replicates already fan out across the pool; keep the agent-level
		// engine single-worker per replicate (matches cmd/sweep).
		return engine.NewCliqueSampled(rule, init, 1, r.Uint64())
	case "population":
		return engine.NewPopulation(rule, init)
	case "graph":
		return engine.NewGraphEngine(rule, g, init, 1, r.Uint64(), r)
	}
	panic(fmt.Sprintf("service: unreachable engine %q", eng))
}

// mustGraph builds the validated topology from GraphSeed. CSR structures
// are read-only during stepping, so one instance is safely shared by all
// concurrently running replicates of a job.
func (s *JobSpec) mustGraph() topo.NeighborSource {
	g, err := topo.BuildSource(s.Graph, s.N, rng.New(s.GraphSeed), topo.BuildOpts{})
	if err != nil {
		panic(fmt.Sprintf("service: mustGraph on unvalidated spec: %v", err))
	}
	return g
}

// MCJob compiles the spec into the mc.Job executed on the worker pool.
// The spec must have passed Validate.
func (s *JobSpec) MCJob() mc.Job {
	return s.mcJob(nil)
}

// MCJobTraced is MCJob with per-replicate telemetry: each replicate asks
// obsFor for an observer keyed by its private seed and, when one is
// returned, runs with it attached. Because observers consume zero rng
// (the obs.Observer contract), the records are byte-identical to
// MCJob's — only the side-channel telemetry differs.
func (s *JobSpec) MCJobTraced(obsFor func(seed uint64) obs.Observer) mc.Job {
	return s.mcJob(obsFor)
}

func (s *JobSpec) mcJob(obsFor func(seed uint64) obs.Observer) mc.Job {
	spec := *s // detach from the caller's copy
	bias, err := spec.biasValue()
	if err != nil {
		panic(fmt.Sprintf("service: MCJob on unvalidated spec: %v", err))
	}
	job := mc.Job{
		Name:       spec.Name(),
		Seed:       spec.Seed,
		Replicates: spec.Replicates,
		MaxRounds:  spec.MaxRounds,
	}
	// The quenched topology is built once, lazily (on the first replicate
	// that needs it, off the admission path), and shared by every
	// replicate: graph generation can dominate a short job, and the
	// structure is immutable during stepping.
	var sharedGraph func() topo.NeighborSource
	if eng, err := spec.resolveEngine(); err == nil && eng == "graph" {
		sharedGraph = sync.OnceValue(spec.mustGraph)
	}
	job.New = func(seed uint64) mc.Run {
		maxRounds := job.MaxRounds
		return func() mc.Record {
			r := rng.New(seed)
			init := colorcfg.Biased(spec.N, spec.K, bias)
			var g topo.NeighborSource
			if sharedGraph != nil {
				g = sharedGraph()
			}
			eng := spec.buildEngine(init, g, r)
			defer eng.Close()
			opts := core.Options{MaxRounds: maxRounds, Rand: r}
			if obsFor != nil {
				opts.Observer = obsFor(seed)
			}
			res := core.Run(eng, opts)
			return mc.Record{Rounds: res.Rounds, Success: res.WonInitialPlurality}
		}
	}
	return job
}
