package engine

import (
	"fmt"
	"math/bits"
	"slices"

	"plurality/internal/colorcfg"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// GraphEngine is the literal agent-array engine: every vertex of an
// arbitrary topology holds a color; each round every vertex samples h
// neighbors (uniformly, with repetitions) and applies the rule.
// The update is synchronous (double-buffered). On topo.Complete with
// IncludeSelf it realizes exactly the paper's model and is used to
// cross-validate the configuration-level clique engines.
//
// The engine consumes its topology through topo.NeighborSource — the
// minimal sampling surface shared by implicit graphs (neighbors computed
// functionally, zero materialization), in-RAM CSRs and mmap-backed CSRs.
// Every source honors the same rng byte contract (one Int63n(degree) per
// sample, none for an isolated vertex), so swapping a graph's
// representation never perturbs a seeded run; only memory residency
// changes. That is what takes sparse
// runs past RAM: implicit torus to n = 10⁹, mmap smallworld to n = 10⁸.
//
// Vertices are sharded across worker goroutines with independent rng
// streams, so a run is deterministic for a fixed (seed, workers) pair. The
// goroutines are persistent (workerPool), so a steady-state Step performs
// zero allocations; Close stops them explicitly, and a GC cleanup reaps
// them when the engine is abandoned.
//
// On the paper's clique (Complete with IncludeSelf) a uniformly sampled
// neighbor's color is exactly an i.i.d. draw from the color distribution
// c/n, so the engine takes a fast path: workers draw sample batches from an
// alias table over the configuration (dist.Alias.SampleMany) instead of
// chasing random vertex indices through the n-sized color array. The
// processes are identical in distribution; the fast path just trades n
// random memory reads per round for k-sized table lookups.
//
// Every other topology runs one of the sampling plans described at
// graphLoop: batched two-pass loops whenever the rule is rand-free (the
// rng stream is provably unchanged by the reordering, so all goldens stay
// byte-identical), degree-bucketed flat loops when every vertex shares one
// degree, and the legacy per-vertex loops otherwise. Every plan draws the
// same rng stream as the legacy loops, so the plan is never part of a
// run's identity.
type GraphEngine struct {
	rule  dynamics.Rule
	src   topo.NeighborSource
	cfg   colorcfg.Config
	round int
	loop  *graphLoop
	// colors is the engine's *graphBuffers[T] for the width NewGraphEngine
	// picked; the engine reaches it only through the width-free colorStore
	// methods, the workers through their typed pointer.
	colors  colorStore
	tallies [][]int64 // per-worker tallies, summed into cfg every Step
	run     func()    // the single worker's pass when pool is nil
	pool    *workerPool
}

// GraphOpts is empty. It and NewGraphEngineOpts remain only because
// perfbench/sparse.go still calls NewGraphEngineOpts; delete both once it
// calls NewGraphEngine.
type GraphOpts struct{}

// colorWord is the storage type of a vertex color. NewGraphEngine picks
// the narrowest word that holds k−1: uint8 for k ≤ 256, uint16 for
// k ≤ 65536, int32 above. The width changes neither the rng stream nor
// any config, only the bytes the round's random gather touches.
type colorWord interface{ ~uint8 | ~uint16 | ~int32 }

// graphBuffers holds the double-buffered vertex color arrays. They live in
// a separate allocation so pool goroutines can reference them (the buffers
// swap every round) without pinning the engine itself.
type graphBuffers[T colorWord] struct {
	colors []T
	next   []T
}

// colorStore is the width-free view of a *graphBuffers[T] the
// non-generic engine needs outside the worker loops.
type colorStore interface {
	swap()
	appendColors(dst []Color) []Color
	repaint(from, to Color, m int64) int64
}

func (b *graphBuffers[T]) swap() { b.colors, b.next = b.next, b.colors }

func (b *graphBuffers[T]) appendColors(dst []Color) []Color {
	off := len(dst)
	dst = slices.Grow(dst, len(b.colors))[:off+len(b.colors)]
	for i, c := range b.colors {
		dst[off+i] = Color(c)
	}
	return dst
}

// repaint recolors the first m vertices holding from and reports how many
// it moved.
func (b *graphBuffers[T]) repaint(from, to Color, m int64) int64 {
	f, t := T(from), T(to)
	var moved int64
	for i, c := range b.colors {
		if moved == m {
			break
		}
		if c == f {
			b.colors[i] = t
			moved++
		}
	}
	return moved
}

// graphLoop is the engine's sampling plan: everything the worker loops
// need besides the color buffers, resolved once at construction and
// immutable afterwards. Nothing in it depends on the color width. It lives
// in its own allocation (like graphBuffers) so pool goroutines never
// capture the engine itself. Dispatch order in graphWorker.run:
//
//	alias != nil            → clique fast path (batched alias draws)
//	offsets != nil && batch → flat two-pass loop: fill a neighbor-index
//	                          block in one tight rng loop (degree-bucketed
//	                          when unifDeg > 0), then gather colors, so the
//	                          random color reads pipeline instead of
//	                          serializing behind the rule
//	offsets != nil          → legacy per-vertex flat loop (rng-consuming
//	                          rules, whose draws interleave with the samples)
//	batch                   → generic two-pass loop over SampleNeighbor
//	otherwise               → legacy per-vertex generic loop
type graphLoop struct {
	src  topo.NeighborSource
	rule dynamics.Rule
	// alias is non-nil only on the complete+self fast path.
	alias *dist.Alias
	// offsets/neighbors are non-nil only when src exposes topo.Flat; the
	// workers then index these arrays directly.
	offsets   []int64
	neighbors []int32
	h         int
	// unifDeg, when positive, promises every vertex has exactly this
	// degree (from the topo.UniformDegree hint or a one-time offsets
	// scan); the flat batched loop then hoists the degree load, the
	// zero-degree branch, and the rejection threshold out of the rng loop.
	unifDeg int64
	// batch selects the two-pass (draw block, then gather+apply) loops,
	// exactly when the rule is rand-free (dynamics.IsRandFree), which
	// makes the reordering byte-invisible.
	batch bool
	// fast3 replaces rule.Apply in the batched loops with the inlined
	// first-sample 3-majority ("if s1 == s2 adopt s1, else adopt s0" — a
	// conditional move, no data-dependent branch). Set only for
	// dynamics.ThreeMajority without UniformTie, whose Apply it replicates
	// exactly.
	fast3 bool
}

type graphWorker[T colorWord] struct {
	bufs  *graphBuffers[T]
	r     *rng.Rand
	from  int64
	to    int64
	tally []int64 // cache-line padded; see paddedTallies
	buf   []Color // h scratch colors, widened for rule.Apply; a block multiple on batched paths
	idx   []int64 // batched paths: per-block neighbor vertex ids
}

// NewGraphEngineOpts is NewGraphEngine; GraphOpts carries nothing.
func NewGraphEngineOpts(rule dynamics.Rule, src topo.NeighborSource, initial colorcfg.Config, workers int, seed uint64, layoutRng *rng.Rand, _ GraphOpts) *GraphEngine {
	return NewGraphEngine(rule, src, initial, workers, seed, layoutRng)
}

// NewGraphEngine builds the engine over any topo.NeighborSource. The
// initial configuration is laid out over the vertices in color blocks and
// then shuffled with layoutRng so that topology experiments are not biased
// by block placement (on the clique the layout is irrelevant).
// workers <= 1 runs single-threaded. The colors are stored in the
// narrowest colorWord that holds initial.K()−1.
func NewGraphEngine(rule dynamics.Rule, src topo.NeighborSource, initial colorcfg.Config, workers int, seed uint64, layoutRng *rng.Rand) *GraphEngine {
	switch k := initial.K(); {
	case k <= 1<<8:
		return newGraphEngine[uint8](rule, src, initial, workers, seed, layoutRng)
	case k <= 1<<16:
		return newGraphEngine[uint16](rule, src, initial, workers, seed, layoutRng)
	default:
		return newGraphEngine[int32](rule, src, initial, workers, seed, layoutRng)
	}
}

// newGraphEngine is NewGraphEngine with the color width fixed to T, which
// must hold initial.K()−1.
func newGraphEngine[T colorWord](rule dynamics.Rule, src topo.NeighborSource, initial colorcfg.Config, workers int, seed uint64, layoutRng *rng.Rand) *GraphEngine {
	n := src.N()
	if initial.N() != n {
		panic(fmt.Sprintf("engine: configuration has %d agents but graph has %d vertices", initial.N(), n))
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
	// The layout goes straight into the packed buffer: color blocks, then
	// the shuffle, whose swap draws do not depend on the contents.
	bufs := &graphBuffers[T]{colors: make([]T, n), next: make([]T, n)}
	lo := int64(0)
	for j, c := range initial {
		block := bufs.colors[lo : lo+c]
		for i := range block {
			block[i] = T(j)
		}
		lo += c
	}
	if layoutRng != nil {
		rng.Shuffle(layoutRng, bufs.colors)
	}
	e := &GraphEngine{
		rule:   rule,
		src:    src,
		cfg:    initial.Clone(),
		colors: bufs,
	}
	lp := &graphLoop{src: src, rule: rule, h: h}
	if c, ok := src.(topo.Complete); ok && c.IncludeSelf {
		lp.alias = dist.NewAliasCounts(initial)
	} else {
		if flat, ok := src.(topo.Flat); ok {
			lp.offsets, lp.neighbors = flat.FlatRows()
		}
		if ud, ok := src.(topo.UniformDegree); ok {
			lp.unifDeg = ud.UniformDegree()
		} else if lp.offsets != nil {
			lp.unifDeg = uniformFlatDegree(lp.offsets)
		}
		lp.batch = dynamics.IsRandFree(rule)
		if tm, ok := rule.(dynamics.ThreeMajority); ok && !tm.UniformTie {
			lp.fast3 = true
		}
	}
	e.loop = lp
	streams := rng.Streams(seed, workers)
	e.tallies = paddedTallies(workers, initial.K())
	fns := make([]func(), workers)
	for w := range fns {
		from, to := shardRange(n, workers, w)
		bufLen := h
		idxLen := 0
		if lp.alias != nil || lp.batch {
			bufLen = batchBufLen(h, to-from)
		}
		if lp.batch {
			idxLen = bufLen
		}
		wk := &graphWorker[T]{
			bufs:  bufs,
			r:     streams[w],
			from:  from,
			to:    to,
			tally: e.tallies[w],
			buf:   make([]Color, bufLen),
			idx:   make([]int64, idxLen),
		}
		fns[w] = func() { wk.run(lp) }
	}
	if workers > 1 {
		e.pool = attachPool(e, fns)
	} else {
		e.run = fns[0]
	}
	return e
}

// uniformFlatDegree reports the common row width when every row of the
// offset array has the same positive width, else 0. The one sequential
// sweep at construction buys the bucketed hot loop for flat sources that
// carry no topo.UniformDegree hint (generated regular:D CSRs,
// topo.LegacyRandomRegular, materialized tori).
func uniformFlatDegree(offsets []int64) int64 {
	n := len(offsets) - 1
	if n < 1 {
		return 0
	}
	d := offsets[1] - offsets[0]
	if d == 0 {
		return 0
	}
	for v := 1; v < n; v++ {
		if offsets[v+1]-offsets[v] != d {
			return 0
		}
	}
	return d
}

// Close stops the worker goroutines of a multi-worker engine. The engine
// must not be stepped afterwards. Optional: an unreachable engine's workers
// are stopped by a GC cleanup.
func (e *GraphEngine) Close() {
	if e.pool != nil {
		e.pool.shutdown()
	}
}

// Name implements Engine.
func (e *GraphEngine) Name() string {
	return fmt.Sprintf("graph[%s,%s,w=%d]", e.src.Name(), e.rule.Name(), len(e.tallies))
}

// N implements Engine.
func (e *GraphEngine) N() int64 { return e.src.N() }

// K implements Engine.
func (e *GraphEngine) K() int { return e.cfg.K() }

// Round implements Engine.
func (e *GraphEngine) Round() int { return e.round }

// Config implements Engine.
func (e *GraphEngine) Config() colorcfg.Config { return e.cfg.Clone() }

// AppendColors appends a snapshot of the current per-vertex colors to dst
// (which may be nil), widened to Color whatever the engine's storage
// width, and returns the extended slice. The result is owned by the
// caller and survives any number of Steps.
func (e *GraphEngine) AppendColors(dst []Color) []Color {
	return e.colors.appendColors(dst)
}

// Step implements Engine.
func (e *GraphEngine) Step(_ *rng.Rand) {
	if e.loop.alias != nil {
		e.loop.alias.ResetCounts(e.cfg)
	}
	if e.pool == nil {
		e.run()
	} else {
		e.pool.step()
	}
	e.colors.swap()
	clear(e.cfg)
	for _, tally := range e.tallies {
		for j, v := range tally {
			e.cfg[j] += v
		}
	}
	e.round++
}

// run processes the worker's vertex shard into bufs.next, dispatching on
// the engine's sampling plan (see graphLoop).
func (w *graphWorker[T]) run(lp *graphLoop) {
	clear(w.tally)
	switch {
	case lp.alias != nil:
		w.runClique(lp)
	case lp.offsets != nil && lp.batch:
		w.runFlatBatch(lp)
	case lp.offsets != nil:
		w.runFlatSerial(lp)
	case lp.batch:
		w.runGenericBatch(lp)
	default:
		w.runGenericSerial(lp)
	}
}

// runClique is the complete+self fast path: batched i.i.d. color draws from
// the alias table.
func (w *graphWorker[T]) runClique(lp *graphLoop) {
	h := lp.h
	next := w.bufs.next
	perBatch := int64(len(w.buf) / h)
	for v := w.from; v < w.to; {
		m := min(perBatch, w.to-v)
		batch := w.buf[:int(m)*h]
		lp.alias.SampleMany(w.r, batch)
		for i := int64(0); i < m; i++ {
			c := lp.rule.Apply(batch[int(i)*h:int(i+1)*h], w.r)
			next[v+i] = T(c)
			w.tally[c]++
		}
		v += m
	}
}

// runFlatBatch is the sparse hot loop: per block of vertices, pass 1 fills
// the reusable index buffer with one neighbor draw per sample in a tight
// rng loop (degree-bucketed when the degree is uniform), then pass 2
// gathers colors and applies the rule. Splitting the passes lets the
// out-of-order core overlap the block's random color-array reads — the
// dominant cache misses at n >= 10⁷ — instead of serializing them behind
// each vertex's rule application.
func (w *graphWorker[T]) runFlatBatch(lp *graphLoop) {
	h := int64(lp.h)
	colors, next := w.bufs.colors, w.bufs.next
	offsets, neighbors := lp.offsets, lp.neighbors
	perBlock := int64(len(w.idx)) / h
	for v0 := w.from; v0 < w.to; {
		m := min(perBlock, w.to-v0)
		idx := w.idx[:m*h]
		if d := lp.unifDeg; d > 0 {
			// Bucketed pass 1: one FillUniform kernel call for the whole
			// block, then a branch-free sweep resolving draws to vertex ids
			// (row reads are near-sequential as v ascends).
			dist.FillUniform(w.r, d, idx)
			// Uniform degree means offsets is an arithmetic sequence, so
			// the resolve sweep steps lo by d instead of streaming the
			// offsets array.
			p := 0
			for lo := offsets[v0]; lo < offsets[v0+m]; lo += d {
				row := neighbors[lo : lo+d]
				for s := int64(0); s < h; s++ {
					idx[p] = int64(row[idx[p]])
					p++
				}
			}
		} else {
			w.fillFlatExact(lp, idx, v0, m)
		}
		if lp.fast3 {
			w.applyFused3(colors, next, idx, v0, m)
		} else {
			buf := w.buf[:len(idx)]
			for i, u := range idx {
				buf[i] = Color(colors[u])
			}
			w.applyBlock(lp, buf, next, v0, m)
		}
		v0 += m
	}
}

// fillFlatExact fills idx with one resolved neighbor id per sample for
// vertices [v0, v0+m) of a flat source with varying degrees, consuming the
// rng exactly like the serial loop: one Int63n(degree) per draw (the
// inlined Lemire multiply-shift below is rng.Uint64n verbatim, with the
// rejection threshold hoisted per vertex), none for an isolated vertex,
// which samples itself.
func (w *graphWorker[T]) fillFlatExact(lp *graphLoop, idx []int64, v0, m int64) {
	h := lp.h
	offsets, neighbors := lp.offsets, lp.neighbors
	r := w.r
	p := 0
	for v := v0; v < v0+m; v++ {
		lo := offsets[v]
		d := uint64(offsets[v+1] - lo)
		if d == 0 {
			for s := 0; s < h; s++ {
				idx[p] = v
				p++
			}
			continue
		}
		thresh := -d % d
		for s := 0; s < h; s++ {
			hi, lo2 := bits.Mul64(r.Uint64(), d)
			for lo2 < thresh {
				hi, lo2 = bits.Mul64(r.Uint64(), d)
			}
			idx[p] = int64(neighbors[lo+int64(hi)])
			p++
		}
	}
}

// runGenericBatch is the two-pass loop for non-flat sources (implicit
// families, mmap CSRs, opaque graphs): pass 1 fills the index buffer with
// sampled neighbor ids through the interface, pass 2 gathers colors and
// applies the rule. The draws go through SampleNeighbor, byte-identical
// to the serial loop.
func (w *graphWorker[T]) runGenericBatch(lp *graphLoop) {
	h := int64(lp.h)
	colors, next := w.bufs.colors, w.bufs.next
	src := lp.src
	r := w.r
	perBlock := int64(len(w.idx)) / h
	for v0 := w.from; v0 < w.to; {
		m := min(perBlock, w.to-v0)
		idx := w.idx[:m*h]
		p := 0
		for v := v0; v < v0+m; v++ {
			for s := int64(0); s < h; s++ {
				idx[p] = src.SampleNeighbor(v, r)
				p++
			}
		}
		if lp.fast3 {
			w.applyFused3(colors, next, idx, v0, m)
		} else {
			buf := w.buf[:len(idx)]
			for i, u := range idx {
				buf[i] = Color(colors[u])
			}
			w.applyBlock(lp, buf, next, v0, m)
		}
		v0 += m
	}
}

// applyFused3 gathers a block's colors and applies first-sample 3-majority
// in one pass. The rule reduces to "if s1 == s2 adopt s1, else adopt s0"
// (when s0 matches either other sample both branches return the same
// color), which compiles to a conditional move — no data-dependent branch
// to mispredict while the three gather loads per vertex pipeline. (A
// split gather-then-apply variant was measured slower: the extra buffer
// pass costs more than the denser load window buys.)
func (w *graphWorker[T]) applyFused3(colors, next []T, idx []int64, v0, m int64) {
	tally := w.tally
	p := 0
	for i := int64(0); i < m; i++ {
		x := colors[idx[p]]
		y := colors[idx[p+1]]
		z := colors[idx[p+2]]
		p += 3
		if y == z {
			x = y
		}
		next[v0+i] = x
		tally[x]++
	}
}

// applyBlock applies the rule to each h-sample group of buf, writing
// next[v0:v0+m] and the worker tally.
func (w *graphWorker[T]) applyBlock(lp *graphLoop, buf []Color, next []T, v0, m int64) {
	h := lp.h
	p := 0
	for i := int64(0); i < m; i++ {
		c := lp.rule.Apply(buf[p:p+h], w.r)
		p += h
		next[v0+i] = T(c)
		w.tally[c]++
	}
}

// runFlatSerial is the legacy per-vertex flat loop, kept for rng-consuming
// rules (their draws must interleave with the samples in per-vertex
// order). Same stream as the interface path: one
// Int63n(degree) per draw; isolated vertices sample themselves, matching
// SampleNeighbor.
func (w *graphWorker[T]) runFlatSerial(lp *graphLoop) {
	h := lp.h
	colors, next := w.bufs.colors, w.bufs.next
	offsets, neighbors := lp.offsets, lp.neighbors
	for v := w.from; v < w.to; v++ {
		lo := offsets[v]
		d := offsets[v+1] - lo
		for s := 0; s < h; s++ {
			u := v
			if d != 0 {
				u = int64(neighbors[lo+w.r.Int63n(d)])
			}
			w.buf[s] = Color(colors[u])
		}
		c := lp.rule.Apply(w.buf[:h], w.r)
		next[v] = T(c)
		w.tally[c]++
	}
}

// runGenericSerial is the legacy per-vertex loop over any NeighborSource,
// kept for rng-consuming rules. The source's SampleNeighbor contract guarantees the identical rng stream.
func (w *graphWorker[T]) runGenericSerial(lp *graphLoop) {
	h := lp.h
	colors, next := w.bufs.colors, w.bufs.next
	for v := w.from; v < w.to; v++ {
		for s := 0; s < h; s++ {
			w.buf[s] = Color(colors[lp.src.SampleNeighbor(v, w.r)])
		}
		c := lp.rule.Apply(w.buf[:h], w.r)
		next[v] = T(c)
		w.tally[c]++
	}
}

// Repaint implements Engine: scans the vertex array and recolors the first
// m vertices holding `from`.
func (e *GraphEngine) Repaint(from, to Color, m int64) int64 {
	if m <= 0 || from == to {
		return 0
	}
	if int(from) >= e.K() || int(to) >= e.K() || from < 0 || to < 0 {
		panic("engine: Repaint color out of range")
	}
	moved := e.colors.repaint(from, to, m)
	e.cfg[from] -= moved
	e.cfg[to] += moved
	return moved
}
