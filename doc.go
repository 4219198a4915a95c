// Package plurality is a Go reproduction of "Simple Dynamics for Plurality
// Consensus" (Becchetti, Clementi, Natale, Pasquale, Silvestri, Trevisan —
// SPAA 2014; Distributed Computing 30(4), 2017).
//
// The library implements the paper's 3-majority dynamics together with
// every comparator it discusses (h-plurality, median, polling, 2-choices,
// the 3-input rule class of Theorem 3, and the undecided-state dynamics),
// exact configuration-level and agent-level simulation engines for the
// clique and general topologies, the F-bounded dynamic adversary of
// Corollary 4, and a benchmark harness (internal/expt, cmd/experiments)
// that regenerates every theorem-level result as a table — see DESIGN.md
// for the system inventory and EXPERIMENTS.md for paper-vs-measured
// outcomes.
//
// All engine randomness flows through the sampling kernel layer
// internal/dist (exact O(1) binomial, O(k) conditional-binomial
// multinomial, Vose alias tables), which is what makes the exact clique
// engine's round cost independent of n up to 10^9 agents and every
// engine's steady-state Step allocation-free — see DESIGN.md §5.
//
// Engine fidelity is certified, not assumed: internal/validate
// statistically cross-validates every engine against the exact Markov
// chain and the mean-field limit, pins golden sampling traces, and runs
// a mis-sampling mutant as a negative control (go run ./cmd/validate;
// DESIGN.md §7).
//
// Topologies beyond the clique are first-class: internal/topo puts every
// topology, the paper's clique (topo.Complete) included, behind one
// interface, topo.NeighborSource. It provides implicit families that store
// nothing, a CSR graph store with a direct-sampling engine fast path
// (graph rounds at n up to 10^7), a generator registry spanning expanders
// to bottleneck graphs (smallworld, ba, sbm, hypercube, torus:D, barbell,
// ...), and spectral diagnostics (internal/topo/spectral) relating each
// family's spectral gap to its consensus time — see DESIGN.md §8 and
// experiment E20.
//
// Start with examples/quickstart, or:
//
//	go run ./cmd/plurality -n 1000000 -k 16 -bias auto
//	go run ./cmd/experiments -profile quick
//	go run ./cmd/pluralityd -addr :8080   # HTTP job service, DESIGN.md §6
package plurality
