package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// sparseConfig sizes the sparse-run workload: a plurality-style run of
// 3-majority to consensus on a random regular graph held as an in-RAM
// CSR, stepped by the GraphEngine. Every iteration builds the same graph
// from the seed and runs it again, so set-up is timed several times and
// the round count must repeat exactly.
type sparseConfig struct {
	N        int64
	K        int
	Graph    string
	Degree   int64
	Workers  int
	MinIters int
}

var sparseFull = sparseConfig{N: 4_000_000, K: 8, Graph: "regular:8", Degree: 8, Workers: 2, MinIters: 3}

// spanEngine records a span around every Step and Config call core.Run
// makes, so core's own time is what the spans leave over.
type spanEngine struct {
	engine.Engine
	tr     *tracer
	trace  string
	parent int64
}

func (e spanEngine) Step(r *rng.Rand) {
	sp := e.tr.start("engine.step", e.trace, e.parent)
	e.Engine.Step(r)
	e.tr.end(sp)
}

func (e spanEngine) Config() colorcfg.Config {
	sp := e.tr.start("engine.config", e.trace, e.parent)
	c := e.Engine.Config()
	e.tr.end(sp)
	return c
}

// traced wraps e in a spanEngine when tr records spans.
func traced(e engine.Engine, tr *tracer, trace string, parent int64) engine.Engine {
	if tr == nil {
		return e
	}
	return spanEngine{Engine: e, tr: tr, trace: trace, parent: parent}
}

func (c sparseConfig) run(o options) (*outcome, error) {
	oc := newOutcome()
	rule := dynamics.ThreeMajority{}
	bias := core.Corollary1Bias(c.N, c.K, 1)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var (
		setups, runs, rates, perRun []float64
		tracedOp, untracedOp        []float64
		firstSteps                  []float64
		rounds0                     = -1
		gcCycles, allocMB, peaks    []float64
		measured                    time.Duration
	)
	for it := 0; it < c.MinIters || measured.Seconds() < o.seconds; it++ {
		debug.FreeOSMemory() // the previous iteration's graph must not inflate this one's peak
		resetPeakRSS()
		var t *tracer
		var ms0 runtime.MemStats
		if o.trace && it%2 == 0 {
			t = tr
			runtime.ReadMemStats(&ms0)
		}
		trace := fmt.Sprintf("sparse-run/%d/%d", o.seed, it)
		root := t.start("bench.iteration", trace, 0)
		t0 := time.Now()
		sp := t.start("colorcfg.biased", trace, root.ID())
		init := colorcfg.Biased(c.N, c.K, bias)
		t.end(sp)
		r := rng.New(o.seed)
		sp = t.start("topo.build", trace, root.ID())
		g, err := topo.BuildSource(c.Graph, c.N, r, topo.BuildOpts{Mode: topo.ModeCSR})
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.start("engine.init", trace, root.ID())
		eng := engine.NewGraphEngineOpts(rule, g, init, c.Workers, o.seed^0xbeef, r, engine.GraphOpts{})
		t.end(sp)
		setup := time.Since(t0)

		run := t.start("core.run", trace, root.ID())
		t1 := time.Now()
		res := core.Run(traced(eng, t, trace, run.ID()), core.Options{
			Rand: r, Stop: core.WhenConsensusOf(c.N), MaxRounds: 100_000,
		})
		elapsed := time.Since(t1)
		t.end(run)
		sp = t.start("engine.close", trace, root.ID())
		eng.Close()
		t.end(sp)
		t.end(root)
		measured += elapsed
		peak := peakRSSMB()
		fmt.Fprintf(o.log, "sparse-run: iteration %d traced=%v: set-up %.3fs, %d rounds in %.3fs, peak RSS %.0f MB\n",
			it, t != nil, setup.Seconds(), res.Rounds, elapsed.Seconds(), peak)

		oc.attempted++
		if !res.Stopped || !res.WonInitialPlurality {
			oc.fail("iteration %d: stopped=%v won=%v after %d rounds", it, res.Stopped, res.WonInitialPlurality, res.Rounds)
		}
		if rounds0 < 0 {
			rounds0 = res.Rounds
		} else if res.Rounds != rounds0 {
			oc.fail("iteration %d: %d rounds, iteration 0 took %d from the same seed", it, res.Rounds, rounds0)
		}
		op := (setup + elapsed).Seconds()
		if t != nil {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			gcCycles = append(gcCycles, float64(ms1.NumGC-ms0.NumGC))
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			tracedOp = append(tracedOp, op)
			continue
		}
		untracedOp = append(untracedOp, op)
		peaks = append(peaks, peak)
		setups = append(setups, setup.Seconds())
		runs = append(runs, elapsed.Seconds()*1e3)
		rates = append(rates, float64(c.N)*float64(res.Rounds)/elapsed.Seconds())
		perRun = append(perRun, 1/elapsed.Seconds())
	}
	oc.notes["rounds"] = fmt.Sprint(rounds0)
	if !o.trace {
		oc.values["peak_rss_mb"] = median(peaks)
		oc.values["setup_s"] = median(setups)
		oc.values["agent_rounds_per_s"] = median(rates)
		oc.values["replicates_per_s"] = median(perRun)
		oc.values["jobs_per_s"] = median(perRun)
		oc.values["job_p50_ms"] = quantile(runs, 0.5)
		return oc, nil
	}

	spans := tr.snapshot()
	p := traceMetrics(oc, spans, tracedOp, untracedOp)
	v := oc.values
	v["job_p99_ms"] = quantile(runs, 0.99) // from the untraced iterations
	v["topo.build_s"] = median(durations(spans, "topo.build")) / 1e9
	v["engine.init_s"] = median(durations(spans, "engine.init")) / 1e9
	edges := c.N * c.Degree / 2
	v["topo.adjacency_mb"] = float64((c.N+1)*8+2*edges*8) / (1 << 20)
	v["engine.colors_mb"] = float64(2*c.N*4) / (1 << 20)
	steps := durations(spans, "engine.step")
	for i := range steps {
		steps[i] /= float64(c.N)
	}
	v["engine.step_ns_per_agent_p50"] = median(steps)
	for _, s := range spans {
		if s.Name == "core.run" {
			firstSteps = append(firstSteps, float64(firstChild(spans, s.ID, "engine.step").dur())/1e6)
		}
	}
	v["engine.first_step_ms"] = median(firstSteps)
	if run := p.Self["core.run"] + p.Self["engine.step"] + p.Self["engine.config"]; run > 0 {
		v["core.self_share"] = float64(p.Self["core.run"]) / float64(run)
	}
	v["engine.rounds"] = float64(rounds0)
	v["runtime.gc_cycles"] = median(gcCycles)
	v["runtime.alloc_mb"] = median(allocMB)
	return oc, nil
}

// firstChild returns the earliest span with the given name and parent.
func firstChild(spans []span, parent int64, name string) span {
	var first span
	for _, s := range spans {
		if s.Parent == parent && s.Name == name && (first.ID == 0 || s.Start < first.Start) {
			first = s
		}
	}
	return first
}
