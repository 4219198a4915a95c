package service

import (
	"errors"
	"fmt"
	"math"

	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/spec"
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

// resolve runs the spec through spec.Resolve, the rule × engine table
// every surface shares. For the graph engine the service's n cap comes
// first: it bounds every number the registry's constant-time validation
// arithmetic sees, so a hostile spec can neither overflow nor spin. A
// registry size-cap rejection (topo.ErrTooLarge) gets a remediation hint
// appended — the client asked for something well-formed that simply does
// not fit in RAM. Bias is left zero; mcJob fills it in.
func (s *JobSpec) resolve() (spec.Resolved, error) {
	if s.Engine == "graph" {
		if maxN := s.graphMaxN(); s.N < 1 || s.N > maxN {
			return spec.Resolved{}, fmt.Errorf("graph engine needs n in [1, %d] for family %q, got %d", maxN, s.Graph, s.N)
		}
	}
	rs, err := spec.Spec{Rule: s.Rule, Engine: s.Engine, Graph: s.Graph, N: s.N, K: s.K}.Resolve()
	if errors.Is(err, topo.ErrTooLarge) {
		err = fmt.Errorf("%w (hint: use an implicit family — complete, cycle, star, torus, hypercube — which materializes nothing, or build the graph to disk and run it with mmap mode via cmd/plurality -graph-mode mmap)", err)
	}
	return rs, err
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
		if _, err := spec.ParseBias(s.Bias, s.N, s.K); err != nil {
			errs = append(errs, err)
		}
	}
	if s.Sampler != "default" {
		errs = append(errs, fmt.Errorf("%w %q (only \"default\" remains)", ErrUnsupportedSampler, s.Sampler))
	}
	rs, err := s.resolve()
	if err != nil {
		errs = append(errs, err)
	} else if s.N >= 1 {
		maxN := int64(MaxNExact)
		switch rs.Engine {
		case "sampled", "population":
			maxN = MaxNSampled
		case "graph":
			maxN = s.graphMaxN()
		}
		if s.N > maxN {
			errs = append(errs, fmt.Errorf("n = %d exceeds the %s-engine cap %d", s.N, rs.Engine, maxN))
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
	eng := "invalid"
	if rs, err := s.resolve(); err == nil {
		eng = rs.Engine
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
	if rs, err := s.resolve(); err == nil && (rs.Engine == "sampled" || rs.Engine == "graph" || rs.Engine == "population") {
		perRound = s.N
	}
	cost := float64(s.Replicates) * float64(s.MaxRounds) * float64(perRound)
	if cost >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(cost)
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
	rs, err := s.resolve()
	if err == nil {
		rs.Bias, err = spec.ParseBias(s.Bias, s.N, s.K)
	}
	if err != nil {
		panic(fmt.Sprintf("service: MCJob on unvalidated spec: %v", err))
	}
	// Every replicate shares the one quenched topology built from
	// GraphSeed; CSR structures are read-only during stepping.
	gseed := s.GraphSeed
	graph := func() (topo.NeighborSource, error) {
		return rs.BuildSource(rng.New(gseed), topo.BuildOpts{})
	}
	return rs.Job(s.Name(), s.Seed, s.Replicates, s.MaxRounds, graph, obsFor)
}
