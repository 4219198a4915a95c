package engine

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
)

// CliqueMarkov is the exact configuration-level engine for *stateful*
// rules (dynamics.StatefulRule / TransitionModel), whose update depends on
// the agent's own color: agents of each source color j transition
// independently with the row distribution TransitionProbs(c, j, ·), so
//
//	C(t+1) = Σ_j Multinomial(c_j, P(j → ·)),
//
// a sum of k independent multinomials. O(k²) per round, exact.
// It cross-validates against CliqueMultinomial when the rule ignores its
// own color (dynamics.ThreeMajorityKeepOwn).
type CliqueMarkov struct {
	rule  dynamics.StatefulRule
	model dynamics.TransitionModel
	cfg   colorcfg.Config
	n     int64
	round int
	row   []float64
	draw  []int64
	next  []int64
}

// NewCliqueMarkov builds the engine; the rule must implement
// dynamics.TransitionModel.
func NewCliqueMarkov(rule dynamics.StatefulRule, initial colorcfg.Config) *CliqueMarkov {
	model, ok := rule.(dynamics.TransitionModel)
	if !ok {
		panic(fmt.Sprintf("engine: stateful rule %q has no TransitionModel", rule.Name()))
	}
	n := initial.N()
	if n <= 0 {
		panic("engine: empty initial configuration")
	}
	k := initial.K()
	return &CliqueMarkov{
		rule:  rule,
		model: model,
		cfg:   initial.Clone(),
		n:     n,
		row:   make([]float64, k),
		draw:  make([]int64, k),
		next:  make([]int64, k),
	}
}

// Name implements Engine.
func (e *CliqueMarkov) Name() string {
	return fmt.Sprintf("clique-markov[%s]", e.rule.Name())
}

// N implements Engine.
func (e *CliqueMarkov) N() int64 { return e.n }

// K implements Engine.
func (e *CliqueMarkov) K() int { return e.cfg.K() }

// Round implements Engine.
func (e *CliqueMarkov) Round() int { return e.round }

// Config implements Engine.
func (e *CliqueMarkov) Config() colorcfg.Config { return e.cfg.Clone() }

// Step implements Engine.
func (e *CliqueMarkov) Step(r *rng.Rand) {
	clear(e.next)
	for j, cj := range e.cfg {
		if cj == 0 {
			continue
		}
		e.model.TransitionProbs(e.cfg, Color(j), e.row)
		dist.Multinomial(r, cj, e.row, e.draw)
		for h, v := range e.draw {
			e.next[h] += v
		}
	}
	copy(e.cfg, e.next)
	e.round++
}

// Repaint implements Engine.
func (e *CliqueMarkov) Repaint(from, to Color, m int64) int64 {
	return repaintCounts(e.cfg, from, to, m)
}

// Close implements Engine (no worker goroutines; no-op).
func (e *CliqueMarkov) Close() {}
