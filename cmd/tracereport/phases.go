package main

import (
	"fmt"
	"io"

	"plurality/internal/obs"
)

// phase is one of the paper's three analysis phases, following the
// Theorem 1 proof structure.
type phase int

const (
	// phaseGrowth: c1 < 2n/3 — Lemma 3's multiplicative bias growth.
	phaseGrowth phase = iota
	// phaseDecay: 2n/3 <= c1 < n - polylog — Lemma 4's geometric decay of
	// the minority mass.
	phaseDecay
	// phaseExtinction: c1 >= n - polylog — Lemma 5's last step.
	phaseExtinction
)

// String implements fmt.Stringer.
func (p phase) String() string {
	switch p {
	case phaseGrowth:
		return "growth"
	case phaseDecay:
		return "decay"
	case phaseExtinction:
		return "extinction"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// phaseOf classifies a round of an n-agent run. The extinction threshold
// is the paper's log²n-flavoured polylog cut, taken as max(100, n/1000)
// agents outside the plurality.
func phaseOf(r obs.RoundStats, n int64) phase {
	cut := max(n/1000, 100)
	switch {
	case r.MinorityMass <= cut:
		return phaseExtinction
	case r.CMax >= 2*n/3:
		return phaseDecay
	default:
		return phaseGrowth
	}
}

// segment is a maximal run of consecutive rounds in the same phase.
type segment struct {
	phase              phase
	fromRound, toRound int // inclusive
	fromCMax, toCMax   int64
	// growthRate is the mean per-round bias growth factor of the rounds
	// in the segment, each against the round before it.
	growthRate float64
}

// segments splits the rounds (oldest first) of an n-agent run into
// phase segments and estimates the per-round bias growth factor within
// each.
func segments(rounds []obs.RoundStats, n int64) []segment {
	if len(rounds) == 0 {
		return nil
	}
	var out []segment
	first := rounds[0]
	cur := segment{phase: phaseOf(first, n), fromRound: first.Round, toRound: first.Round,
		fromCMax: first.CMax, toCMax: first.CMax}
	growthSum, growthCnt := 0.0, 0
	flush := func() {
		if growthCnt > 0 {
			cur.growthRate = growthSum / float64(growthCnt)
		}
		out = append(out, cur)
	}
	for i := 1; i < len(rounds); i++ {
		r := rounds[i]
		if ph := phaseOf(r, n); ph != cur.phase {
			flush()
			cur = segment{phase: ph, fromRound: r.Round, fromCMax: r.CMax}
			growthSum, growthCnt = 0, 0
		}
		if prev := rounds[i-1]; prev.Bias > 0 {
			growthSum += float64(r.Bias) / float64(prev.Bias)
			growthCnt++
		}
		cur.toRound = r.Round
		cur.toCMax = r.CMax
	}
	flush()
	return out
}

// printPhases writes one profile line per phase segment.
func printPhases(w io.Writer, rounds []obs.RoundStats, n int64) {
	for _, s := range segments(rounds, n) {
		fmt.Fprintf(w, "phase:  %-10s rounds %d..%d (%d)  c_max %d → %d  bias growth ×%.3f/round\n",
			s.phase, s.fromRound, s.toRound, s.toRound-s.fromRound+1, s.fromCMax, s.toCMax, s.growthRate)
	}
}
