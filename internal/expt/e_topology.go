package expt

import (
	"fmt"
	"math"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
	"plurality/internal/topo"
	"plurality/internal/topo/spectral"
)

func init() {
	register("E20", "Extension — spectral gap vs rounds to consensus", runE20)
}

// runE20 quantifies the E14 story: for every topology family in the topo
// registry, the table pairs the structure's estimated spectral gap (and
// sweep conductance) with the 3-majority rounds-to-consensus on it. The
// paper's clique guarantee sits at gap 1/2; as the gap shrinks through the
// expander families down to the torus, the barbell bottleneck, and the
// cycle, convergence slows and eventually stalls at the round cap — the
// gap, not the degree, is the controlling quantity (the 8-regular expander
// and the barbell have identical degrees and gaps five orders apart).
func runE20(p Profile, seed uint64) []*Table {
	n := p.N / 8
	side := int64(math.Sqrt(float64(n)))
	side -= side % 2 // even side → n even (barbell) and square (torus)
	n = side * side
	k := 4
	bias := n * 3 / 20
	limit := 10_000
	if quickish(p) {
		limit = 2_000
	}
	t := &Table{
		ID:    "E20",
		Title: "spectral gap vs 3-majority rounds to consensus across topology families",
		Note: fmt.Sprintf("n=%d, k=%d, bias=%d, %d reps, cap %d rounds; one quenched graph per family (registry spec, seed-derived); gap/conductance of the lazy walk estimated by topo/spectral (clique analytic); prediction: rounds grow as the gap falls, stalling on the Θ(1/n²)-gap families",
			n, k, bias, p.Reps, limit),
		Columns: []string{"graph", "spectral_gap", "conductance", "converged", "rounds_mean", "final_cmax_share"},
	}
	deg := 8.0
	specs := []string{
		"complete",
		"regular:8",
		fmt.Sprintf("gnp:%g", deg/float64(n)),
		"smallworld:8:0.1",
		"ba:4",
		fmt.Sprintf("sbm:2:%g:%g", deg/float64(n)*2, 2.0/float64(n)),
		"torus",
		"barbell:8",
		"cycle",
	}
	for _, spec := range specs {
		spec := spec
		canon, err := topo.Canonical(spec, n)
		if err != nil {
			panic(fmt.Sprintf("expt: E20 spec %q invalid at n=%d: %v", spec, n, err))
		}
		g, err := topo.BuildSource(canon, n, rng.New(seed^hashName(canon)), topo.BuildOpts{})
		if err != nil {
			panic(fmt.Sprintf("expt: E20 build %q: %v", canon, err))
		}
		gapCell, condCell := "-", "-"
		if diag, err := spectral.Diagnose(g, rng.New(seed+1), spectral.Options{}); err == nil {
			gapCell = fmt.Sprintf("%.2e", diag.SpectralGap)
			condCell = fmt.Sprintf("%.2e", diag.Conductance)
		}
		type out struct {
			rounds float64
			conv   bool
			share  float64
		}
		results := ParallelReps(p, p.Reps, seed+hashName(canon), func(rep int, r *rng.Rand) out {
			e := engine.NewGraphEngine(dynamics.ThreeMajority{}, g,
				colorcfg.Biased(n, k, bias), 2, seed^uint64(rep)<<8^hashName(canon), r)
			defer e.Close()
			res := core.Run(e, core.Options{MaxRounds: limit, Rand: r})
			first, _ := res.Final.TopTwo()
			return out{rounds: float64(res.Rounds), conv: res.Stopped,
				share: float64(first) / float64(n)}
		})
		conv := 0
		var rounds, share float64
		for _, o := range results {
			if o.conv {
				conv++
			}
			rounds += o.rounds / float64(len(results))
			share += o.share / float64(len(results))
		}
		t.AddRow(canon, gapCell, condCell, fmt.Sprintf("%d/%d", conv, len(results)),
			fmtF(rounds), fmtF(share))
	}
	return []*Table{t}
}
