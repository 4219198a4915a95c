package engine

import (
	"fmt"
	"math/bits"

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
// degree, and the legacy per-vertex loops otherwise. The opt-in
// sampler=batch mode (GraphOpts.Sampler) trades the per-draw byte contract
// for bulk Uint64-block generation — see Sampler.
type GraphEngine struct {
	rule    dynamics.Rule
	src     topo.NeighborSource
	bufs    *graphBuffers
	cfg     colorcfg.Config
	round   int
	loop    *graphLoop
	workers []*graphWorker
	pool    *workerPool
}

// Sampler selects the rng draw discipline of the graph engine's sampling
// loops.
type Sampler int

const (
	// SamplerDefault preserves the NeighborSource byte contract pinned by
	// the golden traces: every sample costs exactly one Int63n(degree) draw
	// (none for an isolated vertex), in per-vertex order interleaved with
	// any rng the rule consumes. The engine still batches draws under this
	// contract when the rule is rand-free — the reordering is then
	// invisible to the stream.
	SamplerDefault Sampler = iota
	// SamplerBatch is the opt-in relaxed discipline: every sample costs
	// exactly one raw Uint64 (generated in blocks), mapped to a neighbor
	// index by 128-bit multiply-shift with no rejection step (bias at most
	// degree·2⁻⁶⁴), and a block of draws completes before the block's rule
	// applications consume any rng. Runs remain fully deterministic for a
	// fixed (seed, workers) pair — the mode has its own golden trace — but
	// are not comparable draw-for-draw with the default discipline.
	SamplerBatch
)

// String implements fmt.Stringer ("default" / "batch").
func (s Sampler) String() string {
	if s == SamplerBatch {
		return "batch"
	}
	return "default"
}

// ParseSampler parses a user-facing sampler name; "" means default.
func ParseSampler(s string) (Sampler, error) {
	switch s {
	case "", "default":
		return SamplerDefault, nil
	case "batch":
		return SamplerBatch, nil
	}
	return 0, fmt.Errorf("unknown sampler %q (want default or batch)", s)
}

// GraphOpts carries the optional knobs of NewGraphEngineOpts.
type GraphOpts struct {
	// Sampler selects the rng draw discipline; zero value is
	// SamplerDefault.
	Sampler Sampler
}

// graphBuffers holds the double-buffered vertex color arrays. They live in
// a separate allocation so pool goroutines can reference them (the buffers
// swap every round) without pinning the engine itself.
type graphBuffers struct {
	colors []Color
	next   []Color
}

// graphLoop is the engine's sampling plan: everything the worker loops
// need, resolved once at construction and immutable afterwards. It lives in
// its own allocation (like graphBuffers) so pool goroutines never capture
// the engine itself. Dispatch order in graphWorker.run:
//
//	alias != nil            → clique fast path (batched alias draws)
//	offsets != nil && batch → flat two-pass loop: fill a neighbor-index
//	                          block in one tight rng loop (degree-bucketed
//	                          when unifDeg > 0), then gather colors, so the
//	                          random color reads pipeline instead of
//	                          serializing behind the rule
//	offsets != nil          → legacy per-vertex flat loop (rng-consuming
//	                          rules under the default byte contract)
//	batch                   → generic two-pass loop over SampleNeighbor
//	                          (relaxed mode: Degree+Neighbor with
//	                          multiply-shift draws)
//	otherwise               → legacy per-vertex generic loop
type graphLoop struct {
	src  topo.NeighborSource
	rule dynamics.Rule
	bufs *graphBuffers
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
	// batch selects the two-pass (draw block, then gather+apply) loops:
	// always in relaxed mode, and under the default contract exactly when
	// the rule is rand-free (dynamics.IsRandFree), which makes the
	// reordering byte-invisible.
	batch bool
	// relaxed is the sampler=batch draw discipline (see SamplerBatch).
	relaxed bool
	// fast3 replaces rule.Apply in the batched loops with the inlined
	// first-sample 3-majority ("if s1 == s2 adopt s1, else adopt s0" — a
	// conditional move, no data-dependent branch). Set only for
	// dynamics.ThreeMajority without UniformTie, whose Apply it replicates
	// exactly.
	fast3 bool
}

type graphWorker struct {
	r     *rng.Rand
	from  int64
	to    int64
	tally []int64 // cache-line padded; see paddedTallies
	buf   []Color // h scratch colors; a block multiple on batched paths
	idx   []int64 // batched paths: per-block neighbor vertex ids
}

// NewGraphEngine builds the engine over any topo.NeighborSource with the
// default sampler. The initial configuration is laid out over the vertices in color
// blocks and then shuffled with layoutRng so that topology experiments are
// not biased by block placement (on the clique the layout is irrelevant).
// workers <= 1 runs single-threaded.
func NewGraphEngine(rule dynamics.Rule, src topo.NeighborSource, initial colorcfg.Config, workers int, seed uint64, layoutRng *rng.Rand) *GraphEngine {
	return NewGraphEngineOpts(rule, src, initial, workers, seed, layoutRng, GraphOpts{})
}

// NewGraphEngineOpts is NewGraphEngine with explicit options.
func NewGraphEngineOpts(rule dynamics.Rule, src topo.NeighborSource, initial colorcfg.Config, workers int, seed uint64, layoutRng *rng.Rand, opts GraphOpts) *GraphEngine {
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
	e := &GraphEngine{
		rule: rule,
		src:  src,
		bufs: &graphBuffers{
			colors: initial.ToAgents(nil),
			next:   make([]Color, n),
		},
		cfg: initial.Clone(),
	}
	if layoutRng != nil {
		rng.Shuffle(layoutRng, e.bufs.colors)
	}
	lp := &graphLoop{src: src, rule: rule, bufs: e.bufs, h: h}
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
		lp.relaxed = opts.Sampler == SamplerBatch
		lp.batch = lp.relaxed || dynamics.IsRandFree(rule)
		if tm, ok := rule.(dynamics.ThreeMajority); ok && !tm.UniformTie {
			lp.fast3 = true
		}
	}
	e.loop = lp
	streams := rng.Streams(seed, workers)
	tallies := paddedTallies(workers, initial.K())
	for w := 0; w < workers; w++ {
		from, to := shardRange(n, workers, w)
		bufLen := h
		idxLen := 0
		if lp.alias != nil || lp.batch {
			bufLen = batchBufLen(h, to-from)
		}
		if lp.batch {
			idxLen = bufLen
		}
		e.workers = append(e.workers, &graphWorker{
			r:     streams[w],
			from:  from,
			to:    to,
			tally: tallies[w],
			buf:   make([]Color, bufLen),
			idx:   make([]int64, idxLen),
		})
	}
	if workers > 1 {
		fns := make([]func(), workers)
		for i, w := range e.workers {
			fns[i] = func() { w.run(lp) }
		}
		e.pool = attachPool(e, fns)
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
	if e.loop.relaxed {
		return fmt.Sprintf("graph[%s,%s,w=%d,batch]", e.src.Name(), e.rule.Name(), len(e.workers))
	}
	return fmt.Sprintf("graph[%s,%s,w=%d]", e.src.Name(), e.rule.Name(), len(e.workers))
}

// N implements Engine.
func (e *GraphEngine) N() int64 { return e.src.N() }

// K implements Engine.
func (e *GraphEngine) K() int { return e.cfg.K() }

// Round implements Engine.
func (e *GraphEngine) Round() int { return e.round }

// Config implements Engine.
func (e *GraphEngine) Config() colorcfg.Config { return e.cfg.Clone() }

// Colors returns the engine's live per-vertex color slice — a view, not a
// copy. The view is valid only until the next Step: the double-buffer swap
// turns the returned array into the following round's scratch target, so a
// caller holding it across Steps reads half-written data. Read it (or copy
// it out, e.g. with AppendColors) before stepping again; mutate only
// through Repaint.
func (e *GraphEngine) Colors() []Color { return e.bufs.colors }

// AppendColors appends a stable snapshot of the current per-vertex colors
// to dst (which may be nil) and returns the extended slice. Unlike Colors,
// the result is owned by the caller and survives any number of Steps.
func (e *GraphEngine) AppendColors(dst []Color) []Color {
	return append(dst, e.bufs.colors...)
}

// Step implements Engine.
func (e *GraphEngine) Step(_ *rng.Rand) {
	if e.loop.alias != nil {
		e.loop.alias.ResetCounts(e.cfg)
	}
	if e.pool == nil {
		e.workers[0].run(e.loop)
	} else {
		e.pool.step()
	}
	e.bufs.colors, e.bufs.next = e.bufs.next, e.bufs.colors
	clear(e.cfg)
	for _, w := range e.workers {
		for j, v := range w.tally {
			e.cfg[j] += v
		}
	}
	e.round++
}

// run processes the worker's vertex shard into bufs.next, dispatching on
// the engine's sampling plan (see graphLoop).
func (w *graphWorker) run(lp *graphLoop) {
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
func (w *graphWorker) runClique(lp *graphLoop) {
	h := lp.h
	next := lp.bufs.next
	perBatch := int64(len(w.buf) / h)
	for v := w.from; v < w.to; {
		m := min(perBatch, w.to-v)
		batch := w.buf[:int(m)*h]
		lp.alias.SampleMany(w.r, batch)
		for i := int64(0); i < m; i++ {
			c := lp.rule.Apply(batch[int(i)*h:int(i+1)*h], w.r)
			next[v+i] = c
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
func (w *graphWorker) runFlatBatch(lp *graphLoop) {
	h := int64(lp.h)
	colors, next := lp.bufs.colors, lp.bufs.next
	offsets, neighbors := lp.offsets, lp.neighbors
	perBlock := int64(len(w.idx)) / h
	for v0 := w.from; v0 < w.to; {
		m := min(perBlock, w.to-v0)
		idx := w.idx[:m*h]
		if d := lp.unifDeg; d > 0 {
			// Bucketed pass 1: one FillUniform kernel call for the whole
			// block, then a branch-free sweep resolving draws to vertex ids
			// (row reads are near-sequential as v ascends).
			if lp.relaxed {
				dist.FillUniformRelaxed(w.r, d, idx)
			} else {
				dist.FillUniform(w.r, d, idx)
			}
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
		} else if lp.relaxed {
			w.fillFlatRelaxed(lp, idx, v0, m)
		} else {
			w.fillFlatExact(lp, idx, v0, m)
		}
		if lp.fast3 {
			w.applyFused3(colors, next, idx, v0, m)
		} else {
			buf := w.buf[:len(idx)]
			for i, u := range idx {
				buf[i] = colors[u]
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
func (w *graphWorker) fillFlatExact(lp *graphLoop, idx []int64, v0, m int64) {
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

// fillFlatRelaxed is fillFlatExact under the sampler=batch discipline:
// exactly one raw Uint64 per sample, multiply-shift, no rejection.
func (w *graphWorker) fillFlatRelaxed(lp *graphLoop, idx []int64, v0, m int64) {
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
		for s := 0; s < h; s++ {
			hi, _ := bits.Mul64(r.Uint64(), d)
			idx[p] = int64(neighbors[lo+int64(hi)])
			p++
		}
	}
}

// runGenericBatch is the two-pass loop for non-flat sources (implicit
// families, mmap CSRs, opaque graphs): pass 1 fills the index buffer with
// sampled neighbor ids through the interface, pass 2 gathers colors and
// applies the rule. Under the default contract the draws go through
// SampleNeighbor (byte-identical to the serial loop); in relaxed mode they
// are multiply-shift indices resolved through Neighbor, so every backend of
// the same topology still draws identically in batch mode.
func (w *graphWorker) runGenericBatch(lp *graphLoop) {
	h := int64(lp.h)
	colors, next := lp.bufs.colors, lp.bufs.next
	src := lp.src
	r := w.r
	perBlock := int64(len(w.idx)) / h
	for v0 := w.from; v0 < w.to; {
		m := min(perBlock, w.to-v0)
		idx := w.idx[:m*h]
		if lp.relaxed {
			p := 0
			for v := v0; v < v0+m; v++ {
				d := lp.unifDeg
				if d == 0 {
					d = src.Degree(v)
				}
				if d == 0 {
					for s := int64(0); s < h; s++ {
						idx[p] = v
						p++
					}
					continue
				}
				ud := uint64(d)
				for s := int64(0); s < h; s++ {
					hi, _ := bits.Mul64(r.Uint64(), ud)
					idx[p] = src.Neighbor(v, int64(hi))
					p++
				}
			}
		} else {
			p := 0
			for v := v0; v < v0+m; v++ {
				for s := int64(0); s < h; s++ {
					idx[p] = src.SampleNeighbor(v, r)
					p++
				}
			}
		}
		if lp.fast3 {
			w.applyFused3(colors, next, idx, v0, m)
		} else {
			buf := w.buf[:len(idx)]
			for i, u := range idx {
				buf[i] = colors[u]
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
func (w *graphWorker) applyFused3(colors, next []Color, idx []int64, v0, m int64) {
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
func (w *graphWorker) applyBlock(lp *graphLoop, buf []Color, next []Color, v0, m int64) {
	h := lp.h
	p := 0
	for i := int64(0); i < m; i++ {
		c := lp.rule.Apply(buf[p:p+h], w.r)
		p += h
		next[v0+i] = c
		w.tally[c]++
	}
}

// runFlatSerial is the legacy per-vertex flat loop, kept for rng-consuming
// rules under the default byte contract (their draws must interleave with
// the samples in per-vertex order). Same stream as the interface path: one
// Int63n(degree) per draw; isolated vertices sample themselves, matching
// SampleNeighbor.
func (w *graphWorker) runFlatSerial(lp *graphLoop) {
	h := lp.h
	colors, next := lp.bufs.colors, lp.bufs.next
	offsets, neighbors := lp.offsets, lp.neighbors
	for v := w.from; v < w.to; v++ {
		lo := offsets[v]
		d := offsets[v+1] - lo
		for s := 0; s < h; s++ {
			u := v
			if d != 0 {
				u = int64(neighbors[lo+w.r.Int63n(d)])
			}
			w.buf[s] = colors[u]
		}
		c := lp.rule.Apply(w.buf[:h], w.r)
		next[v] = c
		w.tally[c]++
	}
}

// runGenericSerial is the legacy per-vertex loop over any NeighborSource,
// kept for rng-consuming rules under the default byte contract. The
// source's SampleNeighbor contract guarantees the identical rng stream.
func (w *graphWorker) runGenericSerial(lp *graphLoop) {
	h := lp.h
	colors, next := lp.bufs.colors, lp.bufs.next
	for v := w.from; v < w.to; v++ {
		for s := 0; s < h; s++ {
			w.buf[s] = colors[lp.src.SampleNeighbor(v, w.r)]
		}
		c := lp.rule.Apply(w.buf[:h], w.r)
		next[v] = c
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
	colors := e.bufs.colors
	var moved int64
	for i := range colors {
		if moved == m {
			break
		}
		if colors[i] == from {
			colors[i] = to
			moved++
		}
	}
	e.cfg[from] -= moved
	e.cfg[to] += moved
	return moved
}
