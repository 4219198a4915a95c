package validate

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// GraphContractSpec is one topology-contract certification: a registry
// spec resolved through internal/topo, exercised end to end against the
// invariants the CSR port must preserve.
type GraphContractSpec struct {
	// Spec is the topo registry spec ("smallworld:6:0.1", ...).
	Spec string
	// N is the vertex count.
	N int64
	// K and Bias shape the initial configuration Biased(N, K, Bias).
	K    int
	Bias int64
	// Rounds is the number of synchronous 3-majority rounds executed.
	Rounds int
	// Workers is the CSR engine's shard count.
	Workers int
	// Seed drives both the generator and the run.
	Seed uint64
}

// StandardGraphSpecs covers the registry's generator and higher-dimension
// implicit families at sizes the quick tier affords.
func StandardGraphSpecs() []GraphContractSpec {
	mk := func(spec string, n int64) GraphContractSpec {
		return GraphContractSpec{Spec: spec, N: n, K: 3, Bias: n / 6, Rounds: 8, Workers: 2, Seed: 7101}
	}
	return []GraphContractSpec{
		mk("smallworld:6:0.1", 600),
		mk("ba:3", 600),
		mk("sbm:3:0.05:0.005", 600),
		mk("hypercube", 512),
		mk("torus:3", 512), // 8×8×8
		mk("barbell:4", 600),
		mk("regular:8", 600),
		mk("gnp:0.02", 600),
	}
}

// CheckGraphContract certifies one topology spec: the registry resolves
// and rebuilds it reproducibly (byte-identical CSR per seed), the built
// structure satisfies the handshake invariant, and every backend of the
// same (spec, n, seed) — the family default, the opaque interface path,
// the forced in-RAM CSR, the implicit functional graph where the family
// has one, and the mmap-backed CSR round-tripped through a real file —
// yields byte-identical per-round configurations AND per-vertex colors
// (the representation-independence contract: every backend consumes one
// Int63n(degree) per sample). Conservation (Σc = n) is checked every
// round.
func CheckGraphContract(spec GraphContractSpec, opts Options) CheckResult {
	opts = opts.withDefaults()
	seed := opts.Seed
	if seed == 0 {
		seed = spec.Seed
	}
	res := CheckResult{
		Name: fmt.Sprintf("graph-contract/%s/n=%d/w=%d", spec.Spec, spec.N, spec.Workers),
		Kind: "graph-contract",
		Seed: seed,
		Pass: true,
	}
	fail := func(format string, args ...any) CheckResult {
		res.Pass = false
		res.Detail = fmt.Sprintf(format, args...)
		return res
	}

	g, err := topo.BuildSource(spec.Spec, spec.N, rng.New(seed), topo.BuildOpts{})
	if err != nil {
		return fail("build: %v", err)
	}
	if g.N() != spec.N {
		return fail("built %d vertices, want %d", g.N(), spec.N)
	}
	csr, isCSR := g.(*topo.CSR)
	if isCSR {
		// Generator determinism: the registry must reproduce the graph
		// byte for byte from the same seed.
		g2, err := topo.BuildSource(spec.Spec, spec.N, rng.New(seed), topo.BuildOpts{})
		if err != nil {
			return fail("rebuild: %v", err)
		}
		csr2 := g2.(*topo.CSR)
		if !slices.Equal(csr.Offsets, csr2.Offsets) || !slices.Equal(csr.Neighbors, csr2.Neighbors) {
			return fail("generator not byte-deterministic for seed %d", seed)
		}
		// Handshake: every undirected edge contributes exactly two
		// adjacency entries.
		var degreeSum int64
		for v := int64(0); v < csr.N(); v++ {
			degreeSum += csr.Degree(v)
		}
		if degreeSum != int64(len(csr.Neighbors)) || degreeSum != 2*csr.Edges() {
			return fail("handshake violated: Σdeg=%d, entries=%d", degreeSum, len(csr.Neighbors))
		}
	}

	// Assemble every backend of the same (spec, n, seed). Each BuildSource
	// gets a fresh rng.New(seed), so random families rebuild the identical
	// structure per backend; implicit families ignore the rng entirely.
	canon, err := topo.Canonical(spec.Spec, spec.N)
	if err != nil {
		return fail("canonical: %v", err)
	}
	type backend struct {
		name string
		src  topo.NeighborSource
	}
	backends := []backend{{"auto", g}, {"opaque", opaqueGraph{g}}}
	csrSrc, err := topo.BuildSource(spec.Spec, spec.N, rng.New(seed), topo.BuildOpts{Mode: topo.ModeCSR})
	if err != nil {
		return fail("csr backend: %v", err)
	}
	backends = append(backends, backend{"csr", csrSrc})
	if implicit, _ := topo.IsImplicit(spec.Spec); implicit {
		impSrc, err := topo.BuildSource(spec.Spec, spec.N, nil, topo.BuildOpts{Mode: topo.ModeImplicit})
		if err != nil {
			return fail("implicit backend: %v", err)
		}
		backends = append(backends, backend{"implicit", impSrc})
	}
	if dir, err := os.MkdirTemp("", "validate-mmap-*"); err == nil {
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, topo.CacheFileName(canon, spec.N, seed))
		mmapSrc, err := topo.BuildSource(spec.Spec, spec.N, rng.New(seed), topo.BuildOpts{Mode: topo.ModeMmap, Path: path})
		if err != nil {
			return fail("mmap backend: %v", err)
		}
		if c, ok := mmapSrc.(io.Closer); ok {
			defer c.Close()
		}
		backends = append(backends, backend{"mmap", mmapSrc})
	}

	init := colorcfg.Biased(spec.N, spec.K, spec.Bias)
	engines := make([]*engine.GraphEngine, len(backends))
	colors := make([][]engine.Color, len(backends)) // one snapshot buffer per engine, reused every round
	for i, b := range backends {
		engines[i] = engine.NewGraphEngine(dynamics.ThreeMajority{}, b.src, init, spec.Workers,
			seed^0x9e3779b9, rng.New(seed+1))
		defer engines[i].Close()
	}
	for round := 1; round <= spec.Rounds; round++ {
		for i, e := range engines {
			e.Step(nil)
			colors[i] = e.AppendColors(colors[i][:0])
		}
		ref := engines[0].Config()
		if err := ref.Validate(spec.N); err != nil {
			return fail("round %d: conservation violated: %v", round, err)
		}
		for i := 1; i < len(engines); i++ {
			if c := engines[i].Config(); !ref.Equal(c) {
				return fail("round %d: %s backend diverged from %s: %v vs %v",
					round, backends[i].name, backends[0].name, c, ref)
			}
			if !slices.Equal(colors[0], colors[i]) {
				return fail("round %d: %s backend per-vertex colors diverged from %s",
					round, backends[i].name, backends[0].name)
			}
		}
	}
	res.Replicates = spec.Rounds
	return res
}

// CertifyGraphContracts runs CheckGraphContract over a family of specs.
func CertifyGraphContracts(specs []GraphContractSpec, opts Options) []CheckResult {
	out := make([]CheckResult, 0, len(specs))
	for i, spec := range specs {
		o := opts
		if o.Seed != 0 {
			o.Seed = opts.Seed + uint64(i)*101
		}
		out = append(out, CheckGraphContract(spec, o))
	}
	return out
}
