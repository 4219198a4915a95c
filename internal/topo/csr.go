// Package topo is the topology subsystem. NeighborSource is its one
// interface: the engine samples neighbors through it, whatever backs the
// graph. Behind it sit the closed-form implicit families (the paper's
// clique Complete, plus Cycle, Star, Torus, TorusD and Hypercube, whose
// neighbors are computed and never stored), a compressed-sparse-row store
// (CSR, in RAM or mmapped from disk) for materialized graphs, a generator
// suite covering the expansion spectrum from the clique down to bottleneck
// graphs, and a single name→constructor registry (BuildSource) that every
// surface (cmd/sweep, internal/service, cmd/validate, examples/topologies)
// resolves topology specs through.
//
// A CSR keeps its neighbors in one flat int64 array indexed by a flat
// offset array, so degree lookup is O(1), neighbor scans are cache-linear,
// and the whole structure serializes to disk (WriteTo/ReadCSR/OpenCSR) so
// an expensive generated graph is buildable once and reusable across sweep
// cells. The engine indexes flat sources (Flat) directly; the rng draw
// sequence (one Int63n(degree) per sample) is byte-identical to the
// NeighborSource interface path.
//
// All generators draw exclusively from an explicit *rng.Rand, so every
// graph is a pure function of (spec, n, seed): byte-identical across runs,
// machines, and worker counts.
package topo

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"plurality/internal/rng"
)

// CSR is a static undirected graph in compressed-sparse-row form: the
// neighbors of vertex v are Neighbors[Offsets[v]:Offsets[v+1]]. Each
// undirected edge {a, b} appears twice (b in a's row and a in b's row), so
// len(Neighbors) is twice the edge count and the handshake identity
// Σ degree(v) = len(Neighbors) holds by construction.
type CSR struct {
	// GraphName is the registry spec the graph was built from (e.g.
	// "regular:8", "smallworld:10:0.1"); it identifies the topology in
	// engine names and experiment tables.
	GraphName string
	// Offsets has length N()+1 with Offsets[0] = 0, nondecreasing.
	Offsets []int64
	// Neighbors holds the concatenated adjacency rows. Builder and the
	// registry generators sort each row; MaterializeCSR and
	// LegacyRandomRegular keep the source's enumeration order, which is
	// part of the rng byte contract (see NeighborSource.Neighbor).
	Neighbors []int64
}

var _ NeighborSource = (*CSR)(nil)

// Name implements NeighborSource.
func (g *CSR) Name() string { return g.GraphName }

// N implements NeighborSource.
func (g *CSR) N() int64 { return int64(len(g.Offsets)) - 1 }

// Degree implements NeighborSource.
func (g *CSR) Degree(v int64) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// Neighbor implements NeighborSource.
func (g *CSR) Neighbor(v, i int64) int64 { return g.Neighbors[g.Offsets[v]+i] }

// SampleNeighbor implements NeighborSource: one Int63n(degree) draw per
// sample, the same consumption as every other NeighborSource, so
// swapping the backing store never perturbs a seeded run. An isolated
// vertex samples itself and therefore keeps its color forever.
func (g *CSR) SampleNeighbor(v int64, r *rng.Rand) int64 {
	lo, hi := g.Offsets[v], g.Offsets[v+1]
	if lo == hi {
		return v
	}
	return g.Neighbors[lo+r.Int63n(hi-lo)]
}

// Edges returns the number of undirected edges.
func (g *CSR) Edges() int64 { return int64(len(g.Neighbors)) / 2 }

// MaxBuilderN bounds builder vertex counts so edge endpoints pack into one
// uint64 (and so a single graph cannot address more than 2^31 vertices —
// far beyond the memory any materialized topology fits in anyway).
const MaxBuilderN = int64(1) << 31

// Builder accumulates an undirected edge stream and finalizes it into a
// CSR in two counting passes (no per-vertex slice allocations). Edges may
// arrive in any order; Finalize sorts each adjacency row, so the resulting
// bytes depend only on the edge multiset.
type Builder struct {
	name  string
	n     int64
	edges []uint64 // packed a<<32 | b
}

// NewBuilder returns a builder for a graph on n vertices (n in
// [1, MaxBuilderN)).
func NewBuilder(name string, n int64) *Builder {
	if n < 1 || n >= MaxBuilderN {
		panic(fmt.Sprintf("topo: Builder needs 1 <= n < 2^31, got %d", n))
	}
	return &Builder{name: name, n: n}
}

// Grow reserves capacity for m additional edges.
func (b *Builder) Grow(m int) { b.edges = slices.Grow(b.edges, m) }

// AddEdge records the undirected edge {x, y}. Self-loops and out-of-range
// endpoints panic: every generator in this package produces simple graphs,
// so a loop reaching the builder is a generator bug, not an input error.
func (b *Builder) AddEdge(x, y int64) {
	if x == y {
		panic("topo: Builder rejects self-loops")
	}
	if x < 0 || y < 0 || x >= b.n || y >= b.n {
		panic(fmt.Sprintf("topo: edge {%d, %d} out of range [0, %d)", x, y, b.n))
	}
	b.edges = append(b.edges, uint64(x)<<32|uint64(y))
}

// Len returns the number of edges recorded so far.
func (b *Builder) Len() int { return len(b.edges) }

// Finalize builds the CSR. The builder must not be reused afterwards.
func (b *Builder) Finalize() *CSR {
	offsets := make([]int64, b.n+1)
	for _, e := range b.edges {
		offsets[e>>32+1]++
		offsets[uint32(e)+1]++
	}
	for v := int64(0); v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]int64, offsets[b.n])
	cursor := make([]int64, b.n)
	for _, e := range b.edges {
		x, y := int64(e>>32), int64(uint32(e))
		neighbors[offsets[x]+cursor[x]] = y
		cursor[x]++
		neighbors[offsets[y]+cursor[y]] = x
		cursor[y]++
	}
	b.edges = nil
	g := &CSR{GraphName: b.name, Offsets: offsets, Neighbors: neighbors}
	sortRows(g)
	return g
}

// sortRows sorts each adjacency row ascending: the canonical on-disk and
// in-memory layout, independent of edge insertion order.
func sortRows(g *CSR) {
	n := g.N()
	for v := int64(0); v < n; v++ {
		slices.Sort(g.Neighbors[g.Offsets[v]:g.Offsets[v+1]])
	}
}

// ----- binary serialization -----

// csrMagic versions the on-disk format: magic, name (uvarint length +
// bytes), n and nnz (uvarint), then Offsets[1:] and Neighbors as
// little-endian uint64s. Offsets[0] is always 0 and is not stored.
const csrMagic = "topoCSR1"

// ioChunk is the staging-buffer size for (de)serializing the int64 arrays.
const ioChunk = 8192

// WriteTo implements io.WriterTo: the exact bytes are a pure function of
// the CSR contents, so serialized graphs are content-addressable.
func (g *CSR) WriteTo(w io.Writer) (int64, error) {
	var total int64
	wr := func(p []byte) error {
		m, err := w.Write(p)
		total += int64(m)
		return err
	}
	var hdr []byte
	hdr = append(hdr, csrMagic...)
	hdr = binary.AppendUvarint(hdr, uint64(len(g.GraphName)))
	hdr = append(hdr, g.GraphName...)
	hdr = binary.AppendUvarint(hdr, uint64(g.N()))
	hdr = binary.AppendUvarint(hdr, uint64(len(g.Neighbors)))
	if err := wr(hdr); err != nil {
		return total, err
	}
	for _, arr := range [][]int64{g.Offsets[1:], g.Neighbors} {
		buf := make([]byte, 0, 8*ioChunk)
		for _, v := range arr {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			if len(buf) == cap(buf) {
				if err := wr(buf); err != nil {
					return total, err
				}
				buf = buf[:0]
			}
		}
		if err := wr(buf); err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadCSR deserializes a CSR written by WriteTo, validating the structural
// invariants (nondecreasing offsets, in-range neighbors) so a truncated or
// corrupted file is an error, never a later panic.
func ReadCSR(r io.Reader) (*CSR, error) {
	br := &byteReader{r: r}
	magic := make([]byte, len(csrMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("topo: reading magic: %w", err)
	}
	if string(magic) != csrMagic {
		return nil, fmt.Errorf("topo: bad magic %q", magic)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 1<<16 {
		return nil, fmt.Errorf("topo: bad name length (%v)", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("topo: reading name: %w", err)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil || int64(n64) < 1 || int64(n64) >= MaxBuilderN {
		return nil, fmt.Errorf("topo: bad vertex count (%v)", err)
	}
	nnz64, err := binary.ReadUvarint(br)
	if err != nil || nnz64 > 1<<40 {
		return nil, fmt.Errorf("topo: bad neighbor count (%v)", err)
	}
	n, nnz := int64(n64), int64(nnz64)
	g := &CSR{
		GraphName: string(name),
		Offsets:   make([]int64, n+1),
		Neighbors: make([]int64, nnz),
	}
	if err := readInt64s(br, g.Offsets[1:]); err != nil {
		return nil, fmt.Errorf("topo: reading offsets: %w", err)
	}
	if err := readInt64s(br, g.Neighbors); err != nil {
		return nil, fmt.Errorf("topo: reading neighbors: %w", err)
	}
	for v := int64(0); v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] || g.Offsets[v+1] > nnz {
			return nil, fmt.Errorf("topo: offsets not nondecreasing at vertex %d", v)
		}
	}
	if g.Offsets[n] != nnz {
		return nil, fmt.Errorf("topo: offsets end at %d, want %d", g.Offsets[n], nnz)
	}
	for _, u := range g.Neighbors {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("topo: neighbor %d out of range [0, %d)", u, n)
		}
	}
	return g, nil
}

// readInt64s fills dst from little-endian uint64s in chunks.
func readInt64s(r io.Reader, dst []int64) error {
	buf := make([]byte, 8*ioChunk)
	for len(dst) > 0 {
		m := min(len(dst), ioChunk)
		if _, err := io.ReadFull(r, buf[:8*m]); err != nil {
			return err
		}
		for i := 0; i < m; i++ {
			dst[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		dst = dst[m:]
	}
	return nil
}

// byteReader adapts any reader for binary.ReadUvarint without buffering
// past the varint (a bufio.Reader would swallow bytes the array reads need).
type byteReader struct{ r io.Reader }

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}
