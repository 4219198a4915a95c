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
// A CSR keeps its neighbors in one flat int32 array (every vertex id is
// below MaxBuilderN = 2^31) indexed by a flat int64 offset array, so degree
// lookup is O(1), neighbor scans are cache-linear, and the whole structure
// serializes to disk (WriteTo/ReadCSR/OpenCSR) so an expensive generated
// graph is buildable once and reusable across sweep cells. The file stores
// both arrays as uint64s; only the in-RAM neighbor array is narrowed. The
// engine indexes flat sources (Flat) directly; the rng draw sequence (one
// Int63n(degree) per sample) is byte-identical to the NeighborSource
// interface path.
//
// All generators draw exclusively from an explicit *rng.Rand, so every
// graph is a pure function of (spec, n, seed): byte-identical across runs,
// machines, and worker counts.
package topo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

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
	// Neighbors holds the concatenated adjacency rows as int32 vertex ids
	// (4 bytes per entry; n < MaxBuilderN = 2^31 makes every id fit).
	// Builder and the registry generators sort each row; MaterializeCSR
	// and LegacyRandomRegular keep the source's enumeration order, which
	// is part of the rng byte contract (see NeighborSource.Neighbor).
	Neighbors []int32
}

var _ NeighborSource = (*CSR)(nil)

// Name implements NeighborSource.
func (g *CSR) Name() string { return g.GraphName }

// N implements NeighborSource.
func (g *CSR) N() int64 { return int64(len(g.Offsets)) - 1 }

// Degree implements NeighborSource.
func (g *CSR) Degree(v int64) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// Neighbor implements NeighborSource.
func (g *CSR) Neighbor(v, i int64) int64 { return int64(g.Neighbors[g.Offsets[v]+i]) }

// SampleNeighbor implements NeighborSource: one Int63n(degree) draw per
// sample, the same consumption as every other NeighborSource, so
// swapping the backing store never perturbs a seeded run. An isolated
// vertex samples itself and therefore keeps its color forever.
func (g *CSR) SampleNeighbor(v int64, r *rng.Rand) int64 {
	lo, hi := g.Offsets[v], g.Offsets[v+1]
	if lo == hi {
		return v
	}
	return int64(g.Neighbors[lo+r.Int63n(hi-lo)])
}

// Edges returns the number of undirected edges.
func (g *CSR) Edges() int64 { return int64(len(g.Neighbors)) / 2 }

// MaxBuilderN bounds builder vertex counts so edge endpoints pack into one
// uint64 and every vertex id fits the int32 CSR.Neighbors (so a single
// graph cannot address more than 2^31 vertices — far beyond the memory any
// materialized topology fits in anyway).
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
// The degree count and the scatter run on every core, each goroutine
// reading the whole edge list and writing only the rows of its vertex
// range (see forRanges); the prefix sum between them is serial. The
// offsets double as the scatter cursor and are shifted back afterwards,
// so no per-vertex cursor array is allocated.
func (b *Builder) Finalize() *CSR {
	offsets := make([]int64, b.n+1)
	forRanges(b.n, func(lo, hi int64) {
		for _, e := range b.edges {
			if x := int64(e >> 32); x >= lo && x < hi {
				offsets[x+1]++
			}
			if y := int64(uint32(e)); y >= lo && y < hi {
				offsets[y+1]++
			}
		}
	})
	for v := int64(0); v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]int32, offsets[b.n])
	// offsets[v] is now row v's start; the scatter advances it to the
	// row's end, which is row v+1's start.
	forRanges(b.n, func(lo, hi int64) {
		for _, e := range b.edges {
			x, y := int64(e>>32), int64(uint32(e))
			if x >= lo && x < hi {
				neighbors[offsets[x]] = int32(y)
				offsets[x]++
			}
			if y >= lo && y < hi {
				neighbors[offsets[y]] = int32(x)
				offsets[y]++
			}
		}
	})
	copy(offsets[1:], offsets[:b.n])
	offsets[0] = 0
	b.edges = nil
	g := &CSR{GraphName: b.name, Offsets: offsets, Neighbors: neighbors}
	sortRows(g)
	return g
}

// sortRows sorts each adjacency row ascending: the canonical on-disk and
// in-memory layout, independent of edge insertion order. Rows are sorted
// per vertex range in parallel.
func sortRows(g *CSR) {
	forRanges(g.N(), func(lo, hi int64) {
		for v := lo; v < hi; v++ {
			slices.Sort(g.Neighbors[g.Offsets[v]:g.Offsets[v+1]])
		}
	})
}

// testRanges, when positive, replaces runtime.GOMAXPROCS(0) as the number
// of ranges forRanges splits into. Only tests set it, to check that the
// built bytes do not depend on the count.
var testRanges int

// forRanges splits the vertex range [0, n) into runtime.GOMAXPROCS(0)
// contiguous ranges and runs fn on each in its own goroutine, returning
// when all are done; with one range it calls fn inline. The build phases
// that use it give each goroutine the rows of its range to write and
// leave every rng draw serial, so a graph's bytes do not depend on the
// number of ranges.
func forRanges(n int64, fn func(lo, hi int64)) {
	k := int64(runtime.GOMAXPROCS(0))
	if testRanges > 0 {
		k = int64(testRanges)
	}
	k = min(k, n)
	if k <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for i := int64(1); i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(n*i/k, n*(i+1)/k)
		}()
	}
	fn(0, n/k)
	wg.Wait()
}

// ----- binary serialization -----

// csrMagic versions the on-disk format: magic, name (uvarint length +
// bytes), n and nnz (uvarint), then Offsets[1:] and Neighbors as
// little-endian uint64s. Offsets[0] is always 0 and is not stored. The
// file keeps 8 bytes per neighbor id whatever the in-RAM width: WriteTo
// widens the int32 ids and ReadCSR range-checks each one before narrowing
// it, so files and OpenCSR's mapped view of them do not depend on it.
const csrMagic = "topoCSR1"

// ioChunk is the staging-buffer size, in words, for (de)serializing the
// arrays.
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
	buf := make([]byte, 0, 8*ioChunk)
	if err := writeWords(wr, buf, g.Offsets[1:]); err != nil {
		return total, err
	}
	err := writeWords(wr, buf, g.Neighbors)
	return total, err
}

// writeWords writes arr through wr as little-endian uint64s, staging them
// in buf.
func writeWords[T int32 | int64](wr func([]byte) error, buf []byte, arr []T) error {
	for _, v := range arr {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		if len(buf) == cap(buf) {
			if err := wr(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return wr(buf)
}

// ReadCSR deserializes a CSR written by WriteTo, validating the structural
// invariants (nondecreasing offsets, in-range neighbors) so a truncated or
// corrupted stream is an error, never a later panic. The header is never
// trusted for an allocation: nnz above MaxAdjEntries (the in-RAM cap) is
// rejected outright, and the arrays grow only as their words arrive, so a
// short stream claiming a huge graph fails at EOF having allocated about
// what it sent. Header varints must be minimally encoded; an accepted
// stream's prefix is therefore exactly what WriteTo writes for the result.
func ReadCSR(r io.Reader) (*CSR, error) {
	br := &byteReader{r: r}
	magic := make([]byte, len(csrMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("topo: reading magic: %w", err)
	}
	if string(magic) != csrMagic {
		return nil, fmt.Errorf("topo: bad magic %q", magic)
	}
	nameLen, err := readUvarint(br)
	if err != nil || nameLen > 1<<16 {
		return nil, fmt.Errorf("topo: bad name length (%v)", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("topo: reading name: %w", err)
	}
	n64, err := readUvarint(br)
	if err != nil || n64 < 1 || n64 >= uint64(MaxBuilderN) {
		return nil, fmt.Errorf("topo: bad vertex count (%v)", err)
	}
	nnz64, err := readUvarint(br)
	if err != nil || nnz64 > uint64(MaxAdjEntries) {
		return nil, fmt.Errorf("topo: bad neighbor count (%v); the in-RAM cap is %d", err, MaxAdjEntries)
	}
	n, nnz := int64(n64), int64(nnz64)
	offsets := []int64{0}
	err = readWords(br, n, func(chunk []byte) error {
		offsets = growFor(offsets, len(chunk)/8, n+1)
		for i := 0; i < len(chunk); i += 8 {
			o, prev := binary.LittleEndian.Uint64(chunk[i:]), offsets[len(offsets)-1]
			if o < uint64(prev) || o > nnz64 {
				return fmt.Errorf("offsets not nondecreasing at vertex %d", len(offsets)-1)
			}
			offsets = append(offsets, int64(o))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("topo: reading offsets: %w", err)
	}
	if offsets[n] != nnz {
		return nil, fmt.Errorf("topo: offsets end at %d, want %d", offsets[n], nnz)
	}
	neighbors := []int32{}
	err = readWords(br, nnz, func(chunk []byte) error {
		neighbors = growFor(neighbors, len(chunk)/8, nnz)
		for i := 0; i < len(chunk); i += 8 {
			u := binary.LittleEndian.Uint64(chunk[i:])
			if u >= n64 {
				return fmt.Errorf("neighbor %d out of range [0, %d)", int64(u), n)
			}
			neighbors = append(neighbors, int32(u))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("topo: reading neighbors: %w", err)
	}
	return &CSR{GraphName: string(name), Offsets: offsets, Neighbors: neighbors}, nil
}

// readWords reads count little-endian uint64s in chunks of at most ioChunk
// words and hands each chunk's bytes to use.
func readWords(r io.Reader, count int64, use func(chunk []byte) error) error {
	buf := make([]byte, 8*min(count, ioChunk))
	for count > 0 {
		m := min(count, ioChunk)
		if _, err := io.ReadFull(r, buf[:8*m]); err != nil {
			return err
		}
		if err := use(buf[:8*m]); err != nil {
			return err
		}
		count -= m
	}
	return nil
}

// growFor returns s with room for m more elements. Capacity at most
// doubles per step and never exceeds want, so an array read from a stream
// holds about as many elements as have arrived and ends exactly full.
func growFor[T any](s []T, m int, want int64) []T {
	if len(s)+m <= cap(s) {
		return s
	}
	c := min(want, max(2*int64(cap(s)), int64(len(s)+m)))
	grown := make([]T, len(s), c)
	copy(grown, s)
	return grown
}

// readUvarint is binary.ReadUvarint restricted to the minimal encoding
// that WriteTo writes.
func readUvarint(br *byteReader) (uint64, error) {
	start := br.read
	x, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	var enc [binary.MaxVarintLen64]byte
	if br.read-start != binary.PutUvarint(enc[:], x) {
		return 0, errors.New("non-minimal varint")
	}
	return x, nil
}

// byteReader adapts any reader for binary.ReadUvarint without buffering
// past the varint (a bufio.Reader would swallow bytes the array reads need).
// It counts the bytes ReadByte returns, so readUvarint can reject
// non-minimal encodings.
type byteReader struct {
	r    io.Reader
	read int
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	b.read++
	return one[0], nil
}
