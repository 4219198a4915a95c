package topo

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"plurality/internal/rng"
)

// All generators are pure functions of their arguments: every random draw
// comes from the caller's *rng.Rand, so a (spec, n, seed) triple yields a
// byte-identical CSR on every run, machine, and worker count. The name
// argument becomes CSR.GraphName (callers resolve it through the registry's
// canonical spec string).

// RandomRegular samples a random d-regular simple graph on n vertices with
// the configuration (pairing) model followed by in-place degree-preserving
// edge-swap repair, building the CSR directly (one int32 stub array + the
// final int32 neighbor array — no per-vertex slices, no edge map), so the
// construction scales to n·d well past 10⁸ adjacency entries. Requires
// 1 <= d < n and n·d even.
func RandomRegular(name string, n, d int64, r *rng.Rand) *CSR {
	if d < 1 || d >= n || n >= MaxBuilderN {
		panic(fmt.Sprintf("topo: RandomRegular needs 1 <= d < n < 2^31, got n=%d d=%d", n, d))
	}
	if n*d%2 != 0 {
		panic("topo: RandomRegular needs n*d even")
	}
	const restarts = 100
	for attempt := 0; attempt < restarts; attempt++ {
		if g := tryRandomRegular(name, n, d, r); g != nil {
			return g
		}
	}
	panic("topo: failed to sample a simple random regular graph")
}

// tryRandomRegular is one pairing + repair attempt; nil means the swap
// budget ran out (essentially impossible except at adversarial d ≈ n).
func tryRandomRegular(name string, n, d int64, r *rng.Rand) *CSR {
	neighbors := pairStubs(n, d, r)
	if !repairRows(neighbors, d, dirtyRows(neighbors, n, d), r) {
		return nil
	}
	offsets := make([]int64, n+1)
	for v := int64(0); v <= n; v++ {
		offsets[v] = v * d
	}
	g := &CSR{GraphName: name, Offsets: offsets, Neighbors: neighbors}
	sortRows(g)
	return g
}

// pairStubs draws a configuration-model pairing and returns it as
// fixed-stride rows (every vertex has exactly d slots: row v is
// [v*d, v*d+d)), each row in pairing order. Loops and duplicate entries
// are left for repairRows.
func pairStubs(n, d int64, r *rng.Rand) []int32 {
	total := n * d
	neighbors := make([]int32, total)
	// Stub multiset: vertex v appears d times; a random pairing of stubs
	// is stubs[2i] — stubs[2i+1].
	stubs := make([]int32, total)
	for v := int64(0); v < n; v++ {
		row := stubs[v*d : v*d+d]
		for i := range row {
			row[i] = int32(v)
		}
	}
	rng.Shuffle(r, stubs)
	// Scatter the pairing into the rows. Every goroutine reads all pairs
	// in order and writes only the rows of its vertex range, so each row
	// keeps pairing order whatever the number of ranges.
	cursor := make([]int32, n)
	forRanges(n, func(lo, hi int64) {
		for i := int64(0); i < total; i += 2 {
			a, b := int64(stubs[i]), int64(stubs[i+1])
			if a >= lo && a < hi {
				neighbors[a*d+int64(cursor[a])] = int32(b)
				cursor[a]++
			}
			if b >= lo && b < hi {
				neighbors[b*d+int64(cursor[b])] = int32(a)
				cursor[b]++
			}
		}
	})
	return neighbors
}

// dirtyRows lists, ascending, the rows of the fixed-stride pairing that
// hold a self-loop or a duplicate entry. The scan is read-only and runs
// per vertex range in parallel.
func dirtyRows(neighbors []int32, n, d int64) []int32 {
	var (
		mu    sync.Mutex
		dirty []int32
	)
	forRanges(n, func(lo, hi int64) {
		var found []int32
		for v := lo; v < hi; v++ {
			rv := neighbors[v*d : v*d+d]
			for i, u := range rv {
				if int64(u) == v || slices.Contains(rv[i+1:], u) {
					found = append(found, int32(v))
					break
				}
			}
		}
		mu.Lock()
		dirty = append(dirty, found...)
		mu.Unlock()
	})
	slices.Sort(dirty)
	return dirty
}

// repairRows visits the given rows in order and swaps each self-loop or
// duplicate entry with a uniformly random other edge; false means the
// swap budget ran out. Visiting only the rows dirtyRows lists draws
// exactly what a sweep over every row would: a swap creates no loop, and
// it creates a duplicate only in two rows that held loops (a loop at v
// swapped against a loop entry at c leaves v—c twice), so a row that
// starts clean stays clean and a sweep over it would draw nothing.
func repairRows(neighbors []int32, d int64, rows []int32, r *rng.Rand) bool {
	total := int64(len(neighbors))
	budget := 200*d*d + 10_000
	row := func(v int32) []int32 { return neighbors[int64(v)*d : int64(v)*d+d] }
	isBad := func(v int32, slot int64) bool {
		rv := row(v)
		u := rv[slot]
		if u == v {
			return true
		}
		for j := int64(0); j < d; j++ {
			if j != slot && rv[j] == u {
				return true
			}
		}
		return false
	}
	contains := func(v, u int32) bool {
		for _, x := range row(v) {
			if x == u {
				return true
			}
		}
		return false
	}
	replaceOne := func(v, from, to int32) {
		rv := row(v)
		for j := range rv {
			if rv[j] == from {
				rv[j] = to
				return
			}
		}
		panic("topo: repair lost an edge mirror")
	}
	for _, v := range rows {
		for slot := int64(0); slot < d; slot++ {
			for isBad(v, slot) {
				if budget <= 0 {
					return false
				}
				budget--
				p := r.Int63n(total)
				c := int32(p / d)
				if c == v {
					continue
				}
				old, w := row(v)[slot], neighbors[p]
				// New edges would be {v, w} and {c, old}: reject loops
				// and duplicates on all incident rows (symmetry covers
				// the mirrored rows).
				if w == v || c == old || contains(v, w) || contains(c, old) {
					continue
				}
				row(v)[slot] = w
				neighbors[p] = old
				replaceOne(old, v, c)
				replaceOne(w, c, v)
			}
		}
	}
	return true
}

// LegacyRandomRegular is the historical random d-regular generator
// (configuration-model pairing, then edge-swap repair against an edge
// multiset map), kept because golden traces pin its byte stream. Unlike
// RandomRegular it keeps each row in pairing order (rows are not sorted)
// and names the graph "random-D-regular". Requires 1 <= d < n and n·d
// even; new code should use the regular:D family instead.
func LegacyRandomRegular(n int64, d int, r *rng.Rand) *CSR {
	if int64(d) >= n || d < 1 {
		panic("topo: legacy random regular needs 1 <= d < n")
	}
	if n*int64(d)%2 != 0 {
		panic("topo: legacy random regular needs n*d even")
	}
	m := n * int64(d) / 2
	key := func(a, b int64) [2]int64 {
		if a > b {
			a, b = b, a
		}
		return [2]int64{a, b}
	}

	const restarts = 100
	for attempt := 0; attempt < restarts; attempt++ {
		// Random pairing of stubs.
		stubs := make([]int64, 2*m)
		idx := 0
		for v := int64(0); v < n; v++ {
			for j := 0; j < d; j++ {
				stubs[idx] = v
				idx++
			}
		}
		rng.Shuffle(r, stubs)
		edges := make([][2]int64, m)
		count := make(map[[2]int64]int, m)
		for i := int64(0); i < m; i++ {
			edges[i] = [2]int64{stubs[2*i], stubs[2*i+1]}
			count[key(edges[i][0], edges[i][1])]++
		}
		isBad := func(i int64) bool {
			e := edges[i]
			return e[0] == e[1] || count[key(e[0], e[1])] > 1
		}

		// Degree-preserving swap repair.
		budget := 200*m + 10000
		ok := true
		for i := int64(0); i < m; i++ {
			for isBad(i) {
				if budget <= 0 {
					ok = false
					break
				}
				budget--
				j := r.Int63n(m)
				if j == i {
					continue
				}
				e1, e2 := edges[i], edges[j]
				n1 := [2]int64{e1[0], e2[1]}
				n2 := [2]int64{e2[0], e1[1]}
				if n1[0] == n1[1] || n2[0] == n2[1] {
					continue
				}
				k1, k2 := key(n1[0], n1[1]), key(n2[0], n2[1])
				ko1, ko2 := key(e1[0], e1[1]), key(e2[0], e2[1])
				count[ko1]--
				count[ko2]--
				if k1 == k2 || count[k1] > 0 || count[k2] > 0 {
					count[ko1]++
					count[ko2]++
					continue
				}
				count[k1]++
				count[k2]++
				edges[i], edges[j] = n1, n2
				// edges[j] may have become bad only if it was already bad;
				// re-sweeping j is handled by the outer loop when j > i,
				// and j < i cannot become bad: its new key was verified
				// fresh. edges[i] is rechecked by the while condition.
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		// Every row has exactly d slots; fill them in edge order.
		deg := int64(d)
		offsets := make([]int64, n+1)
		for v := int64(0); v <= n; v++ {
			offsets[v] = v * deg
		}
		neighbors := make([]int32, n*deg)
		cursor := make([]int64, n)
		for _, e := range edges {
			a, b := e[0], e[1]
			neighbors[a*deg+cursor[a]] = int32(b)
			cursor[a]++
			neighbors[b*deg+cursor[b]] = int32(a)
			cursor[b]++
		}
		return &CSR{GraphName: fmt.Sprintf("random-%d-regular", d), Offsets: offsets, Neighbors: neighbors}
	}
	panic("topo: failed to sample a simple legacy random regular graph")
}

// Gnp samples the Erdős–Rényi graph G(n, p): every unordered pair is an
// edge independently with probability p. Non-edges are skipped with
// geometric jumps, so the cost is O(n + m), not O(n²).
func Gnp(name string, n int64, p float64, r *rng.Rand) *CSR {
	if n < 1 || p < 0 || p > 1 {
		panic(fmt.Sprintf("topo: Gnp needs n >= 1 and p in [0,1], got n=%d p=%v", n, p))
	}
	b := NewBuilder(name, n)
	if p > 0 {
		b.Grow(int(p * float64(n) * float64(n-1) / 2))
		for v := int64(0); v < n-1; v++ {
			u := v
			for {
				if p >= 1 {
					u++
				} else {
					u += geometricSkip(r, p)
				}
				if u >= n {
					break
				}
				b.AddEdge(v, u)
			}
		}
	}
	return b.Finalize()
}

// SmallWorld samples a Watts–Strogatz small-world graph: the ring lattice
// where each vertex is joined to its k/2 nearest neighbors on each side,
// with every lattice edge rewired (keeping its anchor endpoint) to a
// uniformly random target with probability beta. Rewiring rejects loops
// and lattice neighbors inline and resolves the rare rewired-rewired
// collisions in a deterministic sort-and-redraw pass, so the result is
// always a simple graph. Requires k even with 2 <= k < n.
func SmallWorld(name string, n, k int64, beta float64, r *rng.Rand) *CSR {
	if k < 2 || k%2 != 0 || k >= n {
		panic(fmt.Sprintf("topo: SmallWorld needs even k with 2 <= k < n, got n=%d k=%d", n, k))
	}
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("topo: SmallWorld needs beta in [0,1], got %v", beta))
	}
	half := k / 2
	isLattice := func(a, c int64) bool {
		delta := (c - a + n) % n
		return delta <= half || delta >= n-half
	}
	// Candidate target for anchor a: uniform, excluding a itself and a's
	// lattice band (the band over-excludes targets whose lattice edge was
	// itself rewired away — the standard WS approximation).
	draw := func(a int64) (int64, bool) {
		for attempt := 0; attempt < 64; attempt++ {
			u := r.Int63n(n)
			if u != a && !isLattice(a, u) {
				return u, true
			}
		}
		return 0, false
	}
	pack := func(a, c int64) uint64 {
		if a > c {
			a, c = c, a
		}
		return uint64(a)<<32 | uint64(c)
	}
	edges := make([]uint64, 0, n*half)
	for v := int64(0); v < n; v++ {
		for j := int64(1); j <= half; j++ {
			target := (v + j) % n
			if beta > 0 && r.Float64() < beta {
				if u, ok := draw(v); ok {
					target = u
				}
			}
			edges = append(edges, pack(v, target))
		}
	}
	// Collision repair: duplicates can only involve rewired edges (the
	// lattice is simple and rewires leave the band), so they are rare.
	// Identify duplicate keys from a sorted copy, then redraw all but one
	// copy of each in a single deterministic pass; membership checks run
	// against the sorted base (over-rejecting is harmless) plus the small
	// set of freshly drawn keys. An irreplaceable copy is dropped, so the
	// result is always simple and the pass always terminates.
	sorted := slices.Clone(edges)
	slices.Sort(sorted)
	extras := map[uint64]int64{} // duplicate key → copies to redraw
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if j-i > 1 {
			extras[sorted[i]] = int64(j - i - 1)
		}
		i = j
	}
	if len(extras) > 0 {
		fresh := map[uint64]bool{}
		out := edges[:0]
		for _, e := range edges {
			left, dup := extras[e]
			if !dup || left == 0 {
				out = append(out, e)
				continue
			}
			extras[e] = left - 1
			a := int64(e >> 32)
			for attempt := 0; attempt < 64; attempt++ {
				u, ok := draw(a)
				if !ok {
					break
				}
				ne := pack(a, u)
				if _, found := slices.BinarySearch(sorted, ne); !found && !fresh[ne] {
					out = append(out, ne)
					fresh[ne] = true
					break
				}
			}
		}
		edges = out
	}
	b := NewBuilder(name, n)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(int64(e>>32), int64(uint32(e)))
	}
	return b.Finalize()
}

// BarabasiAlbert grows a preferential-attachment graph: starting from a
// complete seed graph on m+1 vertices, each new vertex attaches m edges to
// existing vertices chosen proportionally to their degree (the classic
// repeated-endpoint-array construction). Requires 1 <= m and m+1 <= n.
func BarabasiAlbert(name string, n, m int64, r *rng.Rand) *CSR {
	if m < 1 || m+1 > n {
		panic(fmt.Sprintf("topo: BarabasiAlbert needs 1 <= m <= n-1, got n=%d m=%d", n, m))
	}
	b := NewBuilder(name, n)
	edgeCount := m*(m+1)/2 + (n-m-1)*m
	b.Grow(int(edgeCount))
	// ends lists every edge endpoint twice; uniform draws from it realize
	// degree-proportional attachment.
	ends := make([]int32, 0, 2*edgeCount)
	addEdge := func(a, c int64) {
		b.AddEdge(a, c)
		ends = append(ends, int32(a), int32(c))
	}
	for i := int64(0); i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			addEdge(i, j)
		}
	}
	chosen := make([]int64, 0, m)
	for v := m + 1; v < n; v++ {
		chosen = chosen[:0]
		for int64(len(chosen)) < m {
			t := int64(ends[r.Int63n(int64(len(ends)))])
			if !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			addEdge(v, t)
		}
	}
	return b.Finalize()
}

// SBM samples a stochastic block model with `blocks` contiguous
// near-equal communities: vertex pairs inside a block are edges with
// probability pin, pairs across blocks with probability pout. The planted
// pout ≪ pin regime is the adversarial case for plurality consensus —
// communities can lock onto different colors. Sampling skips non-edges
// geometrically per block pair, so the cost is O(n + m + blocks²).
func SBM(name string, n, blocks int64, pin, pout float64, r *rng.Rand) *CSR {
	if blocks < 1 || blocks > n {
		panic(fmt.Sprintf("topo: SBM needs 1 <= blocks <= n, got n=%d blocks=%d", n, blocks))
	}
	if pin < 0 || pin > 1 || pout < 0 || pout > 1 {
		panic(fmt.Sprintf("topo: SBM needs pin, pout in [0,1], got %v, %v", pin, pout))
	}
	start := func(i int64) int64 { // block i covers [start(i), start(i+1))
		base, rem := n/blocks, n%blocks
		return i*base + min(i, rem)
	}
	b := NewBuilder(name, n)
	for i := int64(0); i < blocks; i++ {
		ai, bi := start(i), start(i+1)
		// Within-block: upper-triangle row walk, like Gnp.
		if pin > 0 {
			for v := ai; v < bi-1; v++ {
				u := v
				for {
					if pin >= 1 {
						u++
					} else {
						u += geometricSkip(r, pin)
					}
					if u >= bi {
						break
					}
					b.AddEdge(v, u)
				}
			}
		}
		// Cross-block rectangles against every later block.
		if pout <= 0 {
			continue
		}
		for j := i + 1; j < blocks; j++ {
			aj, bj := start(j), start(j+1)
			cols := bj - aj
			cells := (bi - ai) * cols
			t := int64(-1)
			for {
				if pout >= 1 {
					t++
				} else {
					t += geometricSkip(r, pout)
				}
				if t >= cells {
					break
				}
				b.AddEdge(ai+t/cols, aj+t%cols)
			}
		}
	}
	return b.Finalize()
}

// Barbell is the bottleneck family: two independent random d-regular
// graphs on n/2 vertices each, joined by a single bridge edge between
// vertices n/2-1 and n/2. Its conductance is Θ(1/(n·d)) — the worst case
// for consensus — while each half remains an expander. Requires n even,
// 1 <= d < n/2, and (n/2)·d even.
func Barbell(name string, n, d int64, r *rng.Rand) *CSR {
	h := n / 2
	if n%2 != 0 || d < 1 || d >= h || h*d%2 != 0 {
		panic(fmt.Sprintf("topo: Barbell needs even n, 1 <= d < n/2, (n/2)·d even; got n=%d d=%d", n, d))
	}
	left := RandomRegular(name, h, d, r)
	right := RandomRegular(name, h, d, r)
	offsets := make([]int64, n+1)
	for v := int64(0); v < n; v++ {
		deg := d
		if v == h-1 || v == h {
			deg = d + 1
		}
		offsets[v+1] = offsets[v] + deg
	}
	neighbors := make([]int32, offsets[n])
	for v := int64(0); v < h; v++ {
		dst := neighbors[offsets[v]:]
		copy(dst, left.Neighbors[left.Offsets[v]:left.Offsets[v+1]])
		if v == h-1 {
			dst[d] = int32(h) // bridge
		}
		dst2 := neighbors[offsets[h+v]:]
		src := right.Neighbors[right.Offsets[v]:right.Offsets[v+1]]
		for i, u := range src {
			dst2[i] = u + int32(h)
		}
		if v == 0 {
			dst2[d] = int32(h - 1) // bridge
		}
	}
	g := &CSR{GraphName: name, Offsets: offsets, Neighbors: neighbors}
	sortRows(g)
	return g
}

// maxSkip saturates geometricSkip: it is past the end of every row walk
// (at most n² < 2^62 cells), and adding it to a position in a walk cannot
// overflow an int64.
const maxSkip = int64(1) << 62

// geometricSkip returns 1 + Geometric(p): the gap to the next success in a
// Bernoulli(p) sequence, saturated at maxSkip. Below p ≈ 1.1e-16, 1-p
// rounds to 1 and the quotient is -Inf (and just above it the quotient
// can exceed the int64 range); converting either would wrap to a
// negative skip, so such quotients return maxSkip, which ends the walk.
func geometricSkip(r *rng.Rand, p float64) int64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	q := math.Log(u) / math.Log(1-p)
	if !(q >= 0 && q < float64(maxSkip)) {
		return maxSkip
	}
	return int64(q) + 1
}

// ----- implicit families (O(1) memory, structure computed on the fly) -----

// Complete is the paper's topology: every agent can sample every agent.
// With IncludeSelf (the paper's convention) samples are uniform over all n
// vertices including the sampler; without it they are uniform over the
// other n-1.
type Complete struct {
	Vertices    int64
	IncludeSelf bool
}

// NewComplete returns the paper's clique (self included).
func NewComplete(n int64) Complete {
	if n <= 0 {
		panic("topo: Complete needs n > 0")
	}
	return Complete{Vertices: n, IncludeSelf: true}
}

// Name implements NeighborSource.
func (g Complete) Name() string {
	if g.IncludeSelf {
		return "complete+self"
	}
	return "complete"
}

// N implements NeighborSource.
func (g Complete) N() int64 { return g.Vertices }

// Degree implements NeighborSource; with IncludeSelf, v counts itself.
func (g Complete) Degree(int64) int64 {
	if g.IncludeSelf {
		return g.Vertices
	}
	return g.Vertices - 1
}

// Neighbor implements NeighborSource.
func (g Complete) Neighbor(v, i int64) int64 {
	if g.IncludeSelf {
		return i
	}
	if i >= v {
		return i + 1
	}
	return i
}

// SampleNeighbor implements NeighborSource.
func (g Complete) SampleNeighbor(v int64, r *rng.Rand) int64 {
	if g.IncludeSelf {
		return r.Int63n(g.Vertices)
	}
	u := r.Int63n(g.Vertices - 1)
	if u >= v {
		u++
	}
	return u
}

// Cycle is the n-vertex ring.
type Cycle struct {
	Vertices int64
}

// NewCycle returns a ring on n >= 3 vertices.
func NewCycle(n int64) Cycle {
	if n < 3 {
		panic("topo: Cycle needs n >= 3")
	}
	return Cycle{Vertices: n}
}

// Name implements NeighborSource.
func (Cycle) Name() string { return "cycle" }

// N implements NeighborSource.
func (g Cycle) N() int64 { return g.Vertices }

// Degree implements NeighborSource.
func (Cycle) Degree(int64) int64 { return 2 }

// Neighbor implements NeighborSource.
func (g Cycle) Neighbor(v, i int64) int64 {
	if i == 0 {
		return (v + 1) % g.Vertices
	}
	return (v - 1 + g.Vertices) % g.Vertices
}

// SampleNeighbor implements NeighborSource.
func (g Cycle) SampleNeighbor(v int64, r *rng.Rand) int64 {
	return g.Neighbor(v, r.Int63n(2))
}

// UniformDegree implements the degree-class hint: every vertex has degree
// 2.
func (Cycle) UniformDegree() int64 { return 2 }

// Torus is the rows×cols grid with wraparound (4-regular); the registry's
// default 2-d torus. TorusD generalizes it to any dimension.
type Torus struct {
	Rows, Cols int64
}

// NewTorus returns a torus; both dimensions must be >= 3 so the four
// neighbors are distinct.
func NewTorus(rows, cols int64) Torus {
	if rows < 3 || cols < 3 {
		panic("topo: Torus needs rows, cols >= 3")
	}
	return Torus{Rows: rows, Cols: cols}
}

// Name implements NeighborSource.
func (Torus) Name() string { return "torus" }

// N implements NeighborSource.
func (g Torus) N() int64 { return g.Rows * g.Cols }

// Degree implements NeighborSource.
func (Torus) Degree(int64) int64 { return 4 }

// Neighbor implements NeighborSource: right, left, down, up.
func (g Torus) Neighbor(v, i int64) int64 {
	row, col := v/g.Cols, v%g.Cols
	switch i {
	case 0:
		col = (col + 1) % g.Cols
	case 1:
		col = (col - 1 + g.Cols) % g.Cols
	case 2:
		row = (row + 1) % g.Rows
	default:
		row = (row - 1 + g.Rows) % g.Rows
	}
	return row*g.Cols + col
}

// SampleNeighbor implements NeighborSource.
func (g Torus) SampleNeighbor(v int64, r *rng.Rand) int64 {
	return g.Neighbor(v, r.Int63n(4))
}

// UniformDegree implements the degree-class hint: every vertex has degree
// 4 (both sides >= 3 keep the four neighbors distinct).
func (Torus) UniformDegree() int64 { return 4 }

// Star has vertex 0 as the hub adjacent to all leaves.
type Star struct {
	Vertices int64
}

// NewStar returns a star on n >= 2 vertices with hub 0.
func NewStar(n int64) Star {
	if n < 2 {
		panic("topo: Star needs n >= 2")
	}
	return Star{Vertices: n}
}

// Name implements NeighborSource.
func (Star) Name() string { return "star" }

// N implements NeighborSource.
func (g Star) N() int64 { return g.Vertices }

// Degree implements NeighborSource.
func (g Star) Degree(v int64) int64 {
	if v == 0 {
		return g.Vertices - 1
	}
	return 1
}

// Neighbor implements NeighborSource.
func (g Star) Neighbor(v, i int64) int64 {
	if v == 0 {
		return i + 1
	}
	return 0
}

// SampleNeighbor implements NeighborSource.
func (g Star) SampleNeighbor(v int64, r *rng.Rand) int64 {
	if v == 0 {
		return 1 + r.Int63n(g.Vertices-1)
	}
	return 0
}

// Hypercube is the Dim-dimensional boolean hypercube on 2^Dim vertices:
// u ~ v iff they differ in exactly one bit. Deterministic and implicit —
// neighbor i of v is v with bit i flipped.
type Hypercube struct {
	Dim int
}

// NewHypercube returns the hypercube on n = 2^dim vertices; n must be a
// power of two with 2 <= n < 2^31.
func NewHypercube(n int64) Hypercube {
	if n < 2 || n >= MaxBuilderN || n&(n-1) != 0 {
		panic(fmt.Sprintf("topo: Hypercube needs n a power of two in [2, 2^31), got %d", n))
	}
	dim := 0
	for 1<<dim < n {
		dim++
	}
	return Hypercube{Dim: dim}
}

// Name implements NeighborSource.
func (Hypercube) Name() string { return "hypercube" }

// N implements NeighborSource.
func (g Hypercube) N() int64 { return 1 << g.Dim }

// Degree implements NeighborSource.
func (g Hypercube) Degree(int64) int64 { return int64(g.Dim) }

// Neighbor implements NeighborSource.
func (g Hypercube) Neighbor(v, i int64) int64 { return v ^ (1 << i) }

// UniformDegree implements the degree-class hint: every vertex has degree
// Dim.
func (g Hypercube) UniformDegree() int64 { return int64(g.Dim) }

// SampleNeighbor implements NeighborSource.
func (g Hypercube) SampleNeighbor(v int64, r *rng.Rand) int64 {
	return v ^ (1 << r.Int63n(int64(g.Dim)))
}

// TorusD is the Dims-dimensional torus with equal side length Side:
// vertices are base-Side digit strings, adjacent when exactly one digit
// differs by ±1 mod Side. Degree 2·Dims; implicit like Hypercube.
type TorusD struct {
	Side int64
	Dims int
}

// NewTorusD returns the dims-dimensional torus on n = side^dims vertices;
// n must be an exact dims-th power with side >= 3 (so the 2·dims neighbors
// are distinct) and dims >= 1.
func NewTorusD(n int64, dims int) TorusD {
	side, ok := intRoot(n, dims)
	if !ok || side < 3 {
		panic(fmt.Sprintf("topo: TorusD needs n = side^%d with side >= 3, got %d", dims, n))
	}
	return TorusD{Side: side, Dims: dims}
}

// intRoot returns the exact integer dims-th root of n, or false. It runs
// in O(63) regardless of n, so hostile inputs cannot make validation spin.
func intRoot(n int64, dims int) (int64, bool) {
	if n < 1 || dims < 1 {
		return 0, false
	}
	if dims == 1 {
		return n, true
	}
	if n == math.MaxInt64 {
		// satPow saturates here; 2^63-1 is not a perfect power, so reject
		// rather than let saturation masquerade as equality.
		return 0, false
	}
	// Binary search the root; powers computed with overflow saturation.
	lo, hi := int64(1), int64(1)<<((63+dims-1)/dims)
	for lo < hi {
		mid := (lo + hi) / 2
		switch p := satPow(mid, dims); {
		case p == n:
			return mid, true
		case p < n:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	if satPow(lo, dims) == n {
		return lo, true
	}
	return 0, false
}

// satPow computes b^e saturating at MaxInt64.
func satPow(b int64, e int) int64 {
	p := int64(1)
	for i := 0; i < e; i++ {
		if b != 0 && p > math.MaxInt64/b {
			return math.MaxInt64
		}
		p *= b
	}
	return p
}

// Name implements NeighborSource.
func (g TorusD) Name() string { return fmt.Sprintf("torus%dd", g.Dims) }

// N implements NeighborSource.
func (g TorusD) N() int64 { return satPow(g.Side, g.Dims) }

// Degree implements NeighborSource.
func (g TorusD) Degree(int64) int64 { return int64(2 * g.Dims) }

// Neighbor implements NeighborSource: neighbor 2j / 2j+1 steps +1 / -1 along
// dimension j.
func (g TorusD) Neighbor(v, i int64) int64 {
	dim := i / 2
	stride := int64(1)
	for j := int64(0); j < dim; j++ {
		stride *= g.Side
	}
	digit := (v / stride) % g.Side
	next := digit + 1
	if i%2 == 1 {
		next = digit - 1 + g.Side
	}
	next %= g.Side
	return v + (next-digit)*stride
}

// SampleNeighbor implements NeighborSource.
func (g TorusD) SampleNeighbor(v int64, r *rng.Rand) int64 {
	return g.Neighbor(v, r.Int63n(int64(2*g.Dims)))
}

// UniformDegree implements the degree-class hint: every vertex has degree
// 2·Dims (Side >= 3 keeps all 2·Dims neighbors distinct).
func (g TorusD) UniformDegree() int64 { return int64(2 * g.Dims) }
