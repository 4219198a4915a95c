package topo

import (
	"fmt"

	"plurality/internal/rng"
)

// NeighborSource is the engine↔topology contract: the minimal surface the
// graph engine samples neighbors through, and the one topology interface
// in the repository. The engine has exactly one generic sampling loop,
// shared by implicit backends, in-RAM CSRs and mmap backends alike.
//
// The rng byte contract every implementation must honor (the golden traces
// pin it): SampleNeighbor consumes exactly one Int63n(Degree(u)) draw per
// sample when Degree(u) > 0 and no draws at all when Degree(u) == 0 (the
// vertex samples itself), and the value returned for draw i must equal
// Neighbor(u, i). Two sources that agree on (N, Degree, Neighbor) therefore
// yield byte-identical seeded runs, whichever representation backs them —
// in-RAM CSR, mmap, or a pure function.
type NeighborSource interface {
	// Name identifies the topology in engine names and experiment tables.
	Name() string
	// N is the number of vertices.
	N() int64
	// Degree returns the number of neighbors of u.
	Degree(u int64) int64
	// Neighbor returns the i-th neighbor of u, 0 <= i < Degree(u). The
	// enumeration order is part of the byte contract: backends of the same
	// topology must enumerate identically.
	Neighbor(u, i int64) int64
	// SampleNeighbor returns a uniformly random neighbor of u, consuming
	// the rng exactly as documented above. A vertex of degree zero returns
	// u itself and consumes nothing.
	SampleNeighbor(u int64, r *rng.Rand) int64
}

// Flat is the optional fast-path surface: sources whose adjacency lives in
// a flat int64 offset array and a flat int32 neighbor array (the in-RAM
// CSR) expose them so the engine's hot loop can index the slices directly
// instead of making two interface calls per sample. The arrays must satisfy
// the CSR invariants (offsets nondecreasing, len(offsets) == N()+1,
// neighbors of v at offsets[v]:offsets[v+1]) and must not be mutated while
// an engine is stepping.
//
// The flat path consumes the rng identically to SampleNeighbor, so whether
// the engine takes it is invisible to seeded runs.
type Flat interface {
	FlatRows() (offsets []int64, neighbors []int32)
}

// FlatRows implements Flat: the CSR is its own flat representation.
func (g *CSR) FlatRows() (offsets []int64, neighbors []int32) { return g.Offsets, g.Neighbors }

// UniformDegree is the optional degree-class hint: a source whose vertices
// all share one positive degree returns it, and the engine's bucketed hot
// loop hoists the per-vertex degree load, the zero-degree branch, and the
// rng rejection threshold out of the sampling loop. Return 0 when degrees
// vary (or are unknown) — the hint must never overclaim, as the bucketed
// loop indexes rows by the advertised width. Implicit regular families
// (torus, hypercube, cycle) answer in O(1); mmap CSRs answer from the scan
// OpenCSR already pays; for in-RAM flat sources the engine derives the
// hint itself from the offset array.
type UniformDegree interface {
	UniformDegree() int64
}

// MaterializeCSR materializes any NeighborSource into an in-RAM CSR
// preserving the source's neighbor enumeration order — Neighbor(v, i) of
// the result equals src.Neighbor(v, i) for every (v, i). Rows are NOT
// re-sorted: sorting would reorder the draw-index→neighbor mapping and
// break byte-identity between the implicit and materialized backends of
// the same topology. (Generator-built CSRs sort rows as their canonical
// layout; a materialized implicit family's canonical layout is its
// enumeration order.) Tests that compare edge sets sort rows themselves.
//
// The name becomes the CSR's GraphName (registry callers pass the
// canonical spec). Returns ErrTooLarge when the source exceeds the
// materialized caps (MaxBuilderN vertices, MaxAdjEntries adjacency
// entries).
func MaterializeCSR(name string, src NeighborSource) (*CSR, error) {
	n := src.N()
	if n < 1 || n >= MaxBuilderN {
		return nil, tooLargef("%s: n = %d exceeds the materialized vertex cap [1, 2^31)", name, n)
	}
	offsets := make([]int64, n+1)
	var total int64
	for v := int64(0); v < n; v++ {
		offsets[v] = total
		total += src.Degree(v)
		if total > MaxAdjEntries {
			return nil, tooLargef("%s at n = %d exceeds the %d materialized adjacency-entry cap", name, n, MaxAdjEntries)
		}
	}
	offsets[n] = total
	neighbors := make([]int32, total)
	for v := int64(0); v < n; v++ {
		row := neighbors[offsets[v]:offsets[v+1]]
		for i := range row {
			row[i] = int32(src.Neighbor(v, int64(i)))
		}
	}
	return &CSR{GraphName: name, Offsets: offsets, Neighbors: neighbors}, nil
}

// CacheFileName is the canonical on-disk file name for a materialized
// topology: a pure function of (canonical spec, n, generator seed), so
// mmap-mode callers that derive their graph seeds deterministically (e.g.
// cmd/sweep cells) agree on the file without coordination. Characters that
// are awkward in file names (':', '/') map to '_'.
func CacheFileName(canon string, n int64, seed uint64) string {
	safe := make([]byte, 0, len(canon))
	for i := 0; i < len(canon); i++ {
		c := canon[i]
		if c == ':' || c == '/' {
			c = '_'
		}
		safe = append(safe, c)
	}
	return fmt.Sprintf("%s-n%d-g%d.csr", safe, n, seed)
}
