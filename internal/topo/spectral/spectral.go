// Package spectral estimates the structural quantities that govern how
// plurality consensus degrades beyond the clique: the second eigenvalue of
// the (lazy, degree-normalized) random-walk matrix and the graph's
// conductance. The paper's guarantees are proved on the complete graph;
// on sparser topologies the 3-majority round count tracks the spectral gap
// — these estimators let every graph run report its gap alongside its
// convergence rounds (experiment E20).
//
// The estimators iterate neighbors through topo.NeighborSource, so they
// work on CSR, mmap and implicit topologies alike; cost is O(iterations ·
// Σ degree). The dense complete graph is answered analytically.
package spectral

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"plurality/internal/rng"
	"plurality/internal/topo"
)

// Result carries the spectral diagnostics of one topology.
type Result struct {
	// Lambda2 is the second-largest eigenvalue of the lazy walk matrix
	// W = (I + D^{-1/2} A D^{-1/2})/2; its eigenvalues lie in [0, 1], so
	// laziness removes the bipartite sign ambiguity of the plain walk.
	Lambda2 float64 `json:"lambda2"`
	// SpectralGap is 1 - Lambda2 (the lazy gap; the non-lazy normalized
	// gap is twice this). Larger means faster mixing: the clique has gap
	// 1/2, an expander Θ(1), the cycle Θ(1/n²).
	SpectralGap float64 `json:"spectral_gap"`
	// Conductance is the minimum sweep-cut conductance over the second
	// eigenvector's ordering: an upper bound on the true conductance,
	// tight in practice and Cheeger-consistent with the gap.
	Conductance float64 `json:"conductance"`
	// Iterations is the number of power iterations performed.
	Iterations int `json:"iterations"`
}

// Options tunes the estimator. Zero values select the defaults.
type Options struct {
	// MaxIters bounds the power iterations (default 500).
	MaxIters int
	// Tol stops iterating when the eigenvalue estimate moves less than
	// this between iterations (default 1e-9).
	Tol float64
}

// MaxVolume bounds Σ degree for the iterative estimator: beyond it a
// single matrix-vector product is too expensive and the caller should
// diagnose a sparser representative instead.
const MaxVolume = int64(1) << 30

// ErrTooDense reports a graph whose adjacency volume exceeds MaxVolume.
var ErrTooDense = errors.New("spectral: graph too dense to iterate (volume over MaxVolume)")

// Diagnose estimates Result for g. Randomness (the start vector) comes
// from r, so the estimate is deterministic per seed; the eigenvalue it
// converges to is seed-independent up to Tol.
func Diagnose(g topo.NeighborSource, r *rng.Rand, opt Options) (Result, error) {
	if opt.MaxIters <= 0 {
		opt.MaxIters = 500
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	if c, ok := g.(topo.Complete); ok {
		return completeResult(c), nil
	}
	n := g.N()
	if n < 2 {
		return Result{}, fmt.Errorf("spectral: need n >= 2, got %d", n)
	}
	var volume int64
	deg := make([]float64, n)
	invSqrt := make([]float64, n)
	for v := int64(0); v < n; v++ {
		d := g.Degree(v)
		volume += d
		if volume > MaxVolume {
			return Result{}, ErrTooDense
		}
		if d == 0 {
			// Isolated vertices sample themselves in the engines; model
			// them as a self-loop so the walk matrix stays stochastic.
			d = 1
		}
		deg[v] = float64(d)
		invSqrt[v] = 1 / math.Sqrt(float64(d))
	}

	// Principal eigenvector of the lazy walk: φ_v ∝ sqrt(deg v).
	phi := make([]float64, n)
	var norm float64
	for v := range phi {
		phi[v] = math.Sqrt(deg[v])
		norm += deg[v]
	}
	norm = math.Sqrt(norm)
	for v := range phi {
		phi[v] /= norm
	}

	// Power iteration on W with φ deflated each step.
	x := make([]float64, n)
	for v := range x {
		x[v] = r.Float64() - 0.5
	}
	y := make([]float64, n)
	lambda, prev := 0.0, math.Inf(1)
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		deflate(x, phi)
		if normalize(x) == 0 {
			// x collapsed onto φ (possible only on tiny graphs); restart.
			for v := range x {
				x[v] = r.Float64() - 0.5
			}
			continue
		}
		applyLazyWalk(g, invSqrt, x, y)
		// Rayleigh quotient before renormalizing: x is unit, so x·y = λ.
		lambda = dot(x, y)
		x, y = y, x
		if math.Abs(lambda-prev) < opt.Tol {
			iters++
			break
		}
		prev = lambda
	}
	// Lazy eigenvalues live in [0, 1]; clamp the float error at the rim.
	lambda = math.Max(0, math.Min(1, lambda))

	cond := sweepConductance(g, deg, x)
	return Result{
		Lambda2:     lambda,
		SpectralGap: 1 - lambda,
		Conductance: cond,
		Iterations:  iters,
	}, nil
}

// completeResult answers the dense clique analytically: with self-sampling
// the walk matrix is J/n (second eigenvalue 0), without it (J-I)/(n-1).
func completeResult(c topo.Complete) Result {
	n := float64(c.Vertices)
	walk2 := 0.0
	if !c.IncludeSelf {
		walk2 = -1 / (n - 1)
	}
	lazy := (1 + walk2) / 2
	// Balanced cut: cut = (n/2)², volume of a side = (n/2)·deg.
	cond := (n / 2) / n
	if !c.IncludeSelf {
		cond = (n / 2) / (n - 1)
	}
	return Result{Lambda2: lazy, SpectralGap: 1 - lazy, Conductance: cond}
}

// applyLazyWalk computes y = W x where W = (I + D^{-1/2} A D^{-1/2})/2,
// with isolated vertices treated as self-loops. invSqrt holds the
// precomputed 1/sqrt(degree) per vertex, so the per-edge work inside the
// up-to-500-iteration power loop is one multiply, not a sqrt and divide.
func applyLazyWalk(g topo.NeighborSource, invSqrt, x, y []float64) {
	n := g.N()
	for v := int64(0); v < n; v++ {
		d := g.Degree(v)
		var acc float64
		if d == 0 {
			acc = x[v] // self-loop
		} else {
			for i := int64(0); i < d; i++ {
				u := g.Neighbor(v, i)
				acc += x[u] * invSqrt[u]
			}
			acc *= invSqrt[v]
		}
		y[v] = (x[v] + acc) / 2
	}
}

// deflate removes the φ component from x (φ must be unit).
func deflate(x, phi []float64) {
	c := dot(x, phi)
	for v := range x {
		x[v] -= c * phi[v]
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// normalize scales x to unit length and returns the prior norm.
func normalize(x []float64) float64 {
	n := math.Sqrt(dot(x, x))
	if n == 0 {
		return 0
	}
	for v := range x {
		x[v] /= n
	}
	return n
}

// sweepConductance orders vertices by the D^{-1/2}-transformed eigenvector
// (the walk eigenvector) and returns the minimum conductance
// cut(S)/min(vol S, vol V∖S) over all prefix cuts S — the classic Cheeger
// sweep, an upper bound on the graph's true conductance.
func sweepConductance(g topo.NeighborSource, deg []float64, x []float64) float64 {
	n := g.N()
	order := make([]int64, n)
	for v := range order {
		order[v] = int64(v)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		return x[a]/math.Sqrt(deg[a]) < x[b]/math.Sqrt(deg[b])
	})
	var totalVol float64
	for _, d := range deg {
		totalVol += d
	}
	inS := make([]bool, n)
	best := math.Inf(1)
	var cut, vol float64
	for idx := int64(0); idx < n-1; idx++ {
		v := order[idx]
		inS[v] = true
		vol += deg[v]
		// An isolated vertex's modeled self-loop never crosses the cut.
		for i, d := int64(0), g.Degree(v); i < d; i++ {
			if inS[g.Neighbor(v, i)] {
				cut--
			} else {
				cut++
			}
		}
		if smaller := math.Min(vol, totalVol-vol); smaller > 0 {
			if phi := cut / smaller; phi < best {
				best = phi
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}
