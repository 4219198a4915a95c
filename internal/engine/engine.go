// Package engine provides the simulation engines that advance a color
// configuration one synchronous round at a time.
//
// Three engines cover the paper's model (the clique) and its extensions:
//
//   - CliqueMultinomial — exact configuration-level engine. On the clique
//     every sample is an i.i.d. draw from the color distribution c/n and an
//     agent's own color never enters its update, so the next configuration
//     is exactly Multinomial(n, p(c)) where p is the rule's closed-form
//     adoption-probability vector (Lemma 1 for 3-majority). O(k) per round;
//     scales to n = 10^9.
//   - CliqueSampled — exact agent-level sampling on the clique for any Rule
//     (needed for h-plurality and the Theorem 3 rule zoo, which have no
//     closed form). Each of the n agents draws h i.i.d. colors from an
//     alias table over c and applies the rule. O(n·h) per round,
//     parallelized across worker goroutines with independent rng streams.
//   - GraphEngine — literal agent-array engine on an arbitrary topology
//     (topo.NeighborSource), double-buffered; used to cross-validate the clique
//     engines and for the beyond-clique extension experiments.
//
// The stateful undecided-state dynamics and the sequential population model
// have their own engines in undecided.go and population.go.
//
// All engines implement Engine, expose an O(k) Config snapshot, and support
// Repaint, the primitive the F-bounded dynamic adversary of Corollary 4
// uses to corrupt agents between rounds.
package engine

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
)

// Color aliases colorcfg.Color.
type Color = colorcfg.Color

// Engine advances a population of n agents over k colors one synchronous
// round at a time. Engines are not safe for concurrent use.
type Engine interface {
	// Name identifies the engine in tables and errors.
	Name() string
	// N is the number of agents.
	N() int64
	// K is the number of colors.
	K() int
	// Round is the number of completed rounds.
	Round() int
	// Config returns a copy of the current configuration (O(k)).
	Config() colorcfg.Config
	// Step advances the process one synchronous round using r.
	Step(r *rng.Rand)
	// Repaint changes the color of up to m agents currently holding color
	// `from` to color `to`, returning how many were changed. This is the
	// corruption primitive of the F-bounded adversary.
	Repaint(from, to Color, m int64) int64
	// Close releases engine resources (persistent worker goroutines in the
	// multi-worker engines; a no-op elsewhere). The engine must not be
	// stepped afterwards. Calling Close is optional — an unreachable
	// engine's workers are reaped by a GC cleanup — but loops that build
	// many engines should Close each one promptly.
	Close()
}

// ----- CliqueMultinomial -----

// CliqueMultinomial is the exact O(k)-per-round clique engine for rules
// with closed-form adoption probabilities (dynamics.ProbModel).
type CliqueMultinomial struct {
	rule  dynamics.Rule
	model dynamics.ProbModel
	cfg   colorcfg.Config
	n     int64
	round int
	probs []float64
	next  []int64
}

// NewCliqueMultinomial builds the exact engine from an initial
// configuration and a rule that implements dynamics.ProbModel. It panics if
// the rule has no closed form (use NewCliqueSampled instead).
func NewCliqueMultinomial(rule dynamics.Rule, initial colorcfg.Config) *CliqueMultinomial {
	model, ok := rule.(dynamics.ProbModel)
	if !ok {
		panic(fmt.Sprintf("engine: rule %q has no closed-form adoption probabilities; use CliqueSampled", rule.Name()))
	}
	n := initial.N()
	if n <= 0 {
		panic("engine: empty initial configuration")
	}
	return &CliqueMultinomial{
		rule:  rule,
		model: model,
		cfg:   initial.Clone(),
		n:     n,
		probs: make([]float64, initial.K()),
		next:  make([]int64, initial.K()),
	}
}

// Name implements Engine.
func (e *CliqueMultinomial) Name() string {
	return fmt.Sprintf("clique-multinomial[%s]", e.rule.Name())
}

// N implements Engine.
func (e *CliqueMultinomial) N() int64 { return e.n }

// K implements Engine.
func (e *CliqueMultinomial) K() int { return e.cfg.K() }

// Round implements Engine.
func (e *CliqueMultinomial) Round() int { return e.round }

// Config implements Engine.
func (e *CliqueMultinomial) Config() colorcfg.Config { return e.cfg.Clone() }

// Step implements Engine: C(t+1) ~ Multinomial(n, p(C(t))).
func (e *CliqueMultinomial) Step(r *rng.Rand) {
	e.model.AdoptionProbs(e.cfg, e.probs)
	dist.Multinomial(r, e.n, e.probs, e.next)
	copy(e.cfg, e.next)
	e.round++
}

// Repaint implements Engine.
func (e *CliqueMultinomial) Repaint(from, to Color, m int64) int64 {
	return repaintCounts(e.cfg, from, to, m)
}

// SetConfig replaces the current configuration (counts are copied). n and k
// must match the engine's. The round counter is unchanged; sweeps and
// benchmarks use this to re-run transient rounds without rebuilding the
// engine.
func (e *CliqueMultinomial) SetConfig(c colorcfg.Config) {
	if c.K() != e.cfg.K() || c.N() != e.n {
		panic("engine: SetConfig dimension mismatch")
	}
	copy(e.cfg, c)
}

// Close implements Engine (no worker goroutines; no-op).
func (e *CliqueMultinomial) Close() {}

// repaintCounts moves up to m agents between colors at count level.
func repaintCounts(c colorcfg.Config, from, to Color, m int64) int64 {
	if m <= 0 || from == to {
		return 0
	}
	if int(from) >= len(c) || int(to) >= len(c) || from < 0 || to < 0 {
		panic("engine: Repaint color out of range")
	}
	moved := min64(m, c[from])
	c[from] -= moved
	c[to] += moved
	return moved
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ----- CliqueSampled -----

// CliqueSampled is the exact agent-level clique engine for arbitrary rules:
// each agent independently draws h colors from the current configuration
// (alias table) and applies the rule. Agents are anonymous on the clique,
// so only counts are stored. Work is sharded across Workers goroutines,
// each with its own rng stream derived deterministically from the seed
// passed to NewCliqueSampled. The goroutines are persistent (see
// workerPool), so a steady-state Step performs zero allocations; call Close
// when discarding a multi-worker engine early, or let the garbage collector
// reap the workers via the attached cleanup.
type CliqueSampled struct {
	rule    dynamics.Rule
	cfg     colorcfg.Config
	n       int64
	round   int
	alias   *dist.Alias
	workers []*sampledWorker
	pool    *workerPool
}

type sampledWorker struct {
	r     *rng.Rand
	from  int64 // agent range [from, to)
	to    int64
	tally []int64 // cache-line padded; see paddedTallies
	buf   []Color // batch sample buffer, a multiple of SampleSize() long
}

// NewCliqueSampled builds the sampled engine. workers <= 1 runs
// single-threaded; seed feeds the per-worker rng streams (the rng passed to
// Step is unused by this engine's sampling but kept for interface parity —
// pass the same generator you seed elsewhere for clarity).
func NewCliqueSampled(rule dynamics.Rule, initial colorcfg.Config, workers int, seed uint64) *CliqueSampled {
	n := initial.N()
	if n <= 0 {
		panic("engine: empty initial configuration")
	}
	h := rule.SampleSize()
	if h < 1 {
		panic("engine: rule sample size must be >= 1")
	}
	if workers < 1 {
		workers = 1
	}
	if int64(workers) > n {
		workers = int(n)
	}
	e := &CliqueSampled{
		rule:  rule,
		cfg:   initial.Clone(),
		n:     n,
		alias: dist.NewAliasCounts(initial),
	}
	streams := rng.Streams(seed, workers)
	tallies := paddedTallies(workers, initial.K())
	for w := 0; w < workers; w++ {
		from, to := shardRange(n, workers, w)
		e.workers = append(e.workers, &sampledWorker{
			r:     streams[w],
			from:  from,
			to:    to,
			tally: tallies[w],
			buf:   make([]Color, batchBufLen(h, to-from)),
		})
	}
	if workers > 1 {
		fns := make([]func(), workers)
		rule, alias := e.rule, e.alias
		for i, w := range e.workers {
			fns[i] = func() { w.run(rule, alias) }
		}
		e.pool = attachPool(e, fns)
	}
	return e
}

// Close stops the worker goroutines of a multi-worker engine. The engine
// must not be stepped afterwards. Optional: an unreachable engine's workers
// are stopped by a GC cleanup.
func (e *CliqueSampled) Close() {
	if e.pool != nil {
		e.pool.shutdown()
	}
}

// Name implements Engine.
func (e *CliqueSampled) Name() string {
	return fmt.Sprintf("clique-sampled[%s,w=%d]", e.rule.Name(), len(e.workers))
}

// N implements Engine.
func (e *CliqueSampled) N() int64 { return e.n }

// K implements Engine.
func (e *CliqueSampled) K() int { return e.cfg.K() }

// Round implements Engine.
func (e *CliqueSampled) Round() int { return e.round }

// Config implements Engine.
func (e *CliqueSampled) Config() colorcfg.Config { return e.cfg.Clone() }

// Step implements Engine: every agent draws h colors from c/n and applies
// the rule; the new counts are the sum of per-worker tallies. Steady-state
// cost is O(n·h) alias draws and zero allocations.
func (e *CliqueSampled) Step(_ *rng.Rand) {
	e.alias.ResetCounts(e.cfg)
	if e.pool == nil {
		e.workers[0].run(e.rule, e.alias)
	} else {
		e.pool.step()
	}
	clear(e.cfg)
	for _, w := range e.workers {
		for j, v := range w.tally {
			e.cfg[j] += v
		}
	}
	e.round++
}

// run processes the worker's agent shard. Samples are drawn in batches with
// SampleMany — one tight loop over the alias table — and then consumed h at
// a time by the rule, which amortizes per-draw call overhead.
func (w *sampledWorker) run(rule dynamics.Rule, alias *dist.Alias) {
	clear(w.tally)
	h := rule.SampleSize()
	perBatch := int64(len(w.buf) / h)
	for v := w.from; v < w.to; {
		m := min(perBatch, w.to-v)
		batch := w.buf[:int(m)*h]
		alias.SampleMany(w.r, batch)
		for i := 0; i < int(m); i++ {
			w.tally[rule.Apply(batch[i*h:(i+1)*h], w.r)]++
		}
		v += m
	}
}

// Repaint implements Engine.
func (e *CliqueSampled) Repaint(from, to Color, m int64) int64 {
	return repaintCounts(e.cfg, from, to, m)
}
