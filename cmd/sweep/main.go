// Command sweep runs a parameter grid of plurality-consensus processes on
// the replicate-parallel internal/mc runner and emits either one
// aggregated CSV row per (rule, n, k, bias-multiplier) cell — mean rounds,
// success rate, 95% Wilson interval — or one JSONL record per replicate,
// the raw material for custom plots beyond the canned experiments of
// cmd/experiments.
//
//	sweep -rules 3majority,median -ns 10000,100000 -ks 2,8,32 -cs 0.5,1,2 -reps 20
//	sweep -graphs complete,regular:8,smallworld:10:0.1 -ns 10000 -reps 20
//	sweep -workers 8 -format jsonl -out grid.jsonl        # stream replicates
//	sweep -format jsonl -out grid.jsonl -resume           # finish an interrupted grid
//	sweep -ns 100000 -reps 8 -trace-dir traces/           # per-cell telemetry traces
//
// Topology specs resolve through the internal/topo registry (the same
// names the service and cmd/validate accept). "complete" runs the paper's
// clique on the closed-form/sampled clique engines; every other family
// runs the CSR-sharded graph engine on one quenched graph per cell (built
// once from a seed derived from the cell name, shared by all replicates).
//
// Replicate seeds are pre-derived per cell from (-seed, cell name), so a
// grid is deterministic for a fixed -seed regardless of -workers, cells
// are reproducible in isolation, and an interrupted -format jsonl grid
// resumes from its own output file: records already on disk are not
// re-simulated, and the completed file is byte-identical to an
// uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// csvHeader is the aggregated per-cell output schema.
const csvHeader = "rule,graph,n,k,bias_mult,bias,reps,rounds_mean,rounds_std,success_rate,wilson_lo,wilson_hi"

// config collects the sweep flags.
type config struct {
	rules     string
	graphs    string
	graphMode string
	graphDir  string
	ns        string
	ks        string
	cs        string
	reps      int
	seed      uint64
	maxRounds int
	workers   int
	format    string
	out       string
	resume    bool
	traceDir  string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.rules, "rules", "3majority", "comma-separated rules: 3majority | 3majority-utie | median | polling | 2choices | hplurality:H")
	flag.StringVar(&cfg.graphs, "graphs", "complete",
		"comma-separated topology specs ("+strings.Join(topo.FamilyUsages(), " | ")+")")
	flag.StringVar(&cfg.graphMode, "graph-mode", "auto", "topology backend: auto | implicit | csr | mmap (mmap caches built graphs under -graph-dir, keyed by spec, n, and graph seed)")
	flag.StringVar(&cfg.graphDir, "graph-dir", "", "directory for -graph-mode mmap CSR files (required there)")
	flag.StringVar(&cfg.ns, "ns", "100000", "comma-separated population sizes")
	flag.StringVar(&cfg.ks, "ks", "2,8,32", "comma-separated color counts")
	flag.StringVar(&cfg.cs, "cs", "1", "comma-separated bias multipliers applied to the Cor-1 threshold")
	flag.IntVar(&cfg.reps, "reps", 20, "replicates per cell")
	flag.Uint64Var(&cfg.seed, "seed", 1, "base seed")
	flag.IntVar(&cfg.maxRounds, "max-rounds", 200_000, "round budget per run")
	flag.IntVar(&cfg.workers, "workers", 0, "replicate parallelism (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.format, "format", "csv", "output format: csv (one aggregated row per cell) | jsonl (one record per replicate)")
	flag.StringVar(&cfg.out, "out", "", "output file (default stdout; required for -resume)")
	flag.BoolVar(&cfg.resume, "resume", false, "resume an interrupted -format jsonl -out grid, simulating only missing replicates")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "write one JSONL telemetry trace file per grid cell (one trace run per replicate simulated this process; cmd/tracereport renders them) into this directory")
	flag.Parse()

	// Ctrl-C cancels cleanly: in-flight replicates drain, the JSONL file
	// keeps a valid prefix, and -resume picks up from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run validates the config, wires the output file and resume index, and
// hands off to sweep.
func run(ctx context.Context, cfg config) error {
	if cfg.format != "csv" && cfg.format != "jsonl" {
		return fmt.Errorf("unknown -format %q (want csv or jsonl)", cfg.format)
	}
	if mode, err := topo.ParseMode(cfg.graphMode); err != nil {
		return err
	} else if mode == topo.ModeMmap && cfg.graphDir == "" {
		return errors.New("-graph-mode mmap requires -graph-dir")
	}
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return err
		}
	}
	var done map[string]map[int]mc.Record
	if cfg.resume {
		if cfg.format != "jsonl" || cfg.out == "" {
			return errors.New("-resume requires -format jsonl and -out FILE")
		}
		var (
			err   error
			valid int64
			torn  bool
		)
		done, valid, torn, err = mc.ReadResumePrefix(cfg.out)
		if err != nil {
			return err
		}
		if torn {
			// A crash mid-write left a torn trailing line. Drop it before
			// appending — the lost replicate is re-executed deterministically.
			fmt.Fprintf(os.Stderr, "sweep: %s has a torn trailing write; truncating to %d bytes and re-running the lost replicate\n", cfg.out, valid)
			if err := os.Truncate(cfg.out, valid); err != nil {
				return err
			}
		}
	}
	if cfg.out == "" {
		return sweep(ctx, cfg, os.Stdout, done)
	}
	mode := os.O_CREATE | os.O_WRONLY
	if cfg.resume {
		mode |= os.O_APPEND
	} else {
		mode |= os.O_TRUNC
	}
	f, err := os.OpenFile(cfg.out, mode, 0o644)
	if err != nil {
		return err
	}
	err = sweep(ctx, cfg, f, done)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sweep drives the grid: one mc.Job per cell, replicates fanned out
// across a persistent pool.
func sweep(ctx context.Context, cfg config, w io.Writer, done map[string]map[int]mc.Record) error {
	ruleNames := strings.Split(cfg.rules, ",")
	nVals, err := parseInts(cfg.ns)
	if err != nil {
		return err
	}
	kVals, err := parseInts(cfg.ks)
	if err != nil {
		return err
	}
	cVals, err := parseFloats(cfg.cs)
	if err != nil {
		return err
	}
	// Out-of-range values would fail or panic inside the pool, after the
	// CSV header went out; reject them before any output.
	if cfg.reps < 1 {
		return fmt.Errorf("-reps %d: need at least one replicate", cfg.reps)
	}
	for _, k := range kVals {
		if k < 1 {
			return fmt.Errorf("-ks %d: need at least one color", k)
		}
	}
	for _, c := range cVals {
		if !(c >= 0) {
			return fmt.Errorf("-cs %g: bias multiplier must be >= 0", c)
		}
	}

	rules := make([]dynamics.Rule, 0, len(ruleNames))
	for _, ruleName := range ruleNames {
		rule, err := dynamics.ParseRule(strings.TrimSpace(ruleName))
		if err != nil {
			return err
		}
		rules = append(rules, rule)
	}
	// Canonicalize every (graph, n) pair up front through the topo
	// registry: a bad spec fails the whole grid before any simulation.
	graphNames := strings.Split(cfg.graphs, ",")
	graphs := make([]string, 0, len(graphNames))
	for _, gname := range graphNames {
		gname = strings.TrimSpace(gname)
		canon := ""
		for _, n := range nVals {
			c, err := topo.Canonical(gname, n)
			if err != nil {
				return fmt.Errorf("-graphs %s at n=%d: %w", gname, n, err)
			}
			canon = c
		}
		graphs = append(graphs, canon)
	}
	cells := make([]string, 0, len(rules)*len(graphs)*len(nVals)*len(kVals)*len(cVals))
	for _, rule := range rules {
		for _, g := range graphs {
			for _, n := range nVals {
				for _, k := range kVals {
					for _, c := range cVals {
						cells = append(cells, cellName(rule.Name(), g, n, int(k), c))
					}
				}
			}
		}
	}
	if err := checkResumeJobs(done, cells, cfg.reps); err != nil {
		return err
	}

	pool := mc.NewPool(cfg.workers)
	defer pool.Close()

	if cfg.format == "csv" {
		if _, err := fmt.Fprintln(w, csvHeader); err != nil {
			return err
		}
	}
	for _, rule := range rules {
		for _, g := range graphs {
			for _, n := range nVals {
				for _, k := range kVals {
					for _, c := range cVals {
						if err := runCell(ctx, cfg, pool, w, done, rule, g, n, int(k), c); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// checkResumeJobs rejects a resume file that is not a record prefix of
// this grid run: jobs outside the grid, records past a cell boundary that
// an uninterrupted run would not have reached yet, or non-contiguous
// replicate indices. Appending to such a file would mix stale or
// misordered records into the output, breaking the
// byte-identical-to-uninterrupted guarantee.
func checkResumeJobs(done map[string]map[int]mc.Record, cells []string, reps int) error {
	if len(done) == 0 {
		return nil
	}
	inGrid := map[string]bool{}
	for _, cell := range cells {
		inGrid[cell] = true
	}
	for job := range done {
		if !inGrid[job] {
			return fmt.Errorf("resume file contains job %q which is not in this grid (flags changed since the interrupted run?)", job)
		}
	}
	// Records are written cell by cell in grid order and replicate by
	// replicate within a cell, so a valid interrupted file is a complete
	// run of leading cells, at most one partial cell with replicates
	// 0..m-1, and nothing after it.
	partialSeen := false
	for _, cell := range cells {
		byRep := done[cell]
		if len(byRep) == 0 {
			partialSeen = true
			continue
		}
		if partialSeen {
			return fmt.Errorf("resume file is not a prefix of this grid: cell %q has records after an incomplete cell (cell order changed since the interrupted run?)", cell)
		}
		if len(byRep) > reps {
			return fmt.Errorf("resume file has %d replicates for cell %q, more than -reps %d", len(byRep), cell, reps)
		}
		for i := 0; i < len(byRep); i++ {
			if _, ok := byRep[i]; !ok {
				return fmt.Errorf("resume file records for cell %q are not a replicate prefix (rep %d missing)", cell, i)
			}
		}
		if len(byRep) < reps {
			partialSeen = true
		}
	}
	return nil
}

// runCell executes one grid cell as an mc.Job and writes its output. For
// gname != "complete" the cell runs the CSR-sharded graph engine on one
// quenched topology: built lazily from the cell's derived graph seed and
// shared read-only across all replicates.
func runCell(ctx context.Context, cfg config, pool *mc.Pool, w io.Writer,
	done map[string]map[int]mc.Record, rule dynamics.Rule, gname string, n int64, k int, c float64) error {
	s := core.Corollary1Bias(n, k, c)
	name := cellName(rule.Name(), gname, n, k, c)
	_, isProb := rule.(dynamics.ProbModel)
	onClique := gname == "complete"
	var built topo.NeighborSource // set once sharedGraph runs
	sharedGraph := sync.OnceValue(func() topo.NeighborSource {
		// The graph seed is a pure function of (base seed, cell name), so
		// in mmap mode the cache file name is too: re-running the same
		// sweep reuses the on-disk graph instead of rebuilding it.
		mode, _ := topo.ParseMode(cfg.graphMode)
		gseed := cellSeed(cfg.seed, "graph/"+name)
		opts := topo.BuildOpts{Mode: mode}
		if mode == topo.ModeMmap {
			opts.Path = filepath.Join(cfg.graphDir, topo.CacheFileName(gname, n, gseed))
		}
		g, err := topo.BuildSource(gname, n, rng.New(gseed), opts)
		if err != nil {
			panic(fmt.Sprintf("sweep: graph revalidation failed for %q: %v", gname, err))
		}
		built = g
		return g
	})
	var ct *cellTracer
	if cfg.traceDir != "" {
		engLabel := "graph"
		switch {
		case onClique && isProb:
			engLabel = "multinomial"
		case onClique:
			engLabel = "sampled"
		}
		f, err := os.Create(filepath.Join(cfg.traceDir, traceFileName(name)))
		if err != nil {
			return err
		}
		ct = &cellTracer{f: f, engine: engLabel, rule: rule.Name(), n: n, k: k}
	}
	job := mc.Job{
		Name:       name,
		Seed:       cellSeed(cfg.seed, name),
		Replicates: cfg.reps,
		MaxRounds:  cfg.maxRounds,
	}
	job.New = func(seed uint64) mc.Run {
		maxRounds := job.MaxRounds // the Job carries the round budget
		return func() mc.Record {
			r := rng.New(seed)
			init := colorcfg.Biased(n, k, s)
			var e engine.Engine
			switch {
			case onClique && isProb:
				e = engine.NewCliqueMultinomial(rule, init)
			case onClique:
				// Replicates already saturate the cores; keep the
				// agent-level engine single-worker per replicate.
				e = engine.NewCliqueSampled(rule, init, 1, r.Uint64())
			default:
				e = engine.NewGraphEngine(rule, sharedGraph(), init, 1, r.Uint64(), r)
			}
			defer e.Close()
			opts := core.Options{MaxRounds: maxRounds, Rand: r}
			if ct != nil {
				opts.Observer = ct.tracer.Recorder(seed)
			}
			res := core.Run(e, opts)
			return mc.Record{Rounds: res.Rounds, Success: res.WonInitialPlurality}
		}
	}
	var sink func(mc.Record) error
	if cfg.format == "jsonl" {
		sink = func(rec mc.Record) error { return mc.AppendRecord(w, rec) }
	}
	var onProgress func(mc.Record, int, int)
	if ct != nil {
		onProgress = ct.flush
	}
	recs, err := pool.Run(ctx, job, mc.RunOpts{Done: done[name], Sink: sink, OnProgress: onProgress})
	// pool.Run drains every in-flight replicate, so nothing samples the
	// graph any more: unmap an mmap-backed source now, not at exit.
	if c, ok := built.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	if ct != nil {
		if cerr := ct.f.Close(); err == nil {
			err = ct.err
			if err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return err
	}
	if cfg.format == "csv" {
		agg := mc.Aggregate(recs)
		sum := agg.Rounds()
		lo, hi := agg.Wilson(1.96)
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%g,%d,%d,%.2f,%.2f,%.3f,%.3f,%.3f\n",
			rule.Name(), gname, n, k, c, s, agg.N, sum.Mean, sum.Std,
			agg.SuccessRate(), lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// cellTracer owns one cell's -trace-dir output: an obs.Tracer handing
// per-replicate Recorders to the job closures, and the cell's JSONL
// trace file. Replicates execute concurrently, but flush runs on the
// coordinating goroutine in replicate order (OnProgress contract), so
// the file carries one trace run per replicate in replicate order —
// deterministic for a fixed seed regardless of -workers. Replicates
// adopted from a -resume file never re-execute, so their traces are not
// re-created: a resumed cell's trace file covers only the replicates
// simulated by this process.
type cellTracer struct {
	tracer obs.Tracer
	f      *os.File
	engine string
	rule   string
	n      int64
	k      int
	err    error // first WriteTrace failure; latches, surfaced after the cell
}

// flush claims the finished replicate's recorder and appends its trace
// run to the cell file. mc fills rec.Seed for every computed replicate,
// which is the key the job closure registered the recorder under.
func (ct *cellTracer) flush(rec mc.Record, done, total int) {
	r := ct.tracer.Take(rec.Seed)
	if r == nil || ct.err != nil {
		return
	}
	ct.err = r.WriteTrace(ct.f, obs.Header{
		Engine: ct.engine, Rule: ct.rule, N: ct.n, K: ct.k,
		Seed: rec.Seed, Job: rec.Job, Rep: rec.Rep,
	})
}

// traceFileName maps a cell name to a filesystem-safe JSONL file name:
// every byte outside [A-Za-z0-9._-] becomes '_' (the full cell name
// still rides inside the file, in each trace run's job field).
func traceFileName(cell string) string {
	out := []byte(cell)
	for i, b := range out {
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '.', b == '_', b == '-':
		default:
			out[i] = '_'
		}
	}
	return string(out) + ".jsonl"
}

// cellName is the stable grid-cell identifier used in JSONL records and
// resume files.
func cellName(rule, gname string, n int64, k int, c float64) string {
	return fmt.Sprintf("%s/g=%s/n=%d/k=%d/c=%g", rule, gname, n, k, c)
}

// cellSeed derives the cell's job seed from the base seed and the cell
// name, so a cell's replicates are reproducible regardless of the grid
// shape it is embedded in.
func cellSeed(base uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rng.New(base ^ h.Sum64()).Uint64()
}

func parseInts(csv string) ([]int64, error) {
	parts := strings.Split(csv, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(csv string) ([]float64, error) {
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
