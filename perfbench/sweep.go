package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/mc"
	"plurality/internal/rng"
)

// sweepConfig sizes the hplurality-sweep workload: the grid
// `sweep -rules hplurality:H… -ks … -ns N -cs 1 -format jsonl` on the
// clique, one mc.Job per cell on a Workers-wide pool, each replicate a
// single-worker CliqueSampled run, records appended with mc.AppendRecord
// to a file. Every pass runs the same grid from the seed, so the output
// bytes must hash the same pass to pass.
type sweepConfig struct {
	N         int64
	Hs        []int
	Ks        []int
	Reps      int
	Workers   int
	MinPasses int
	// SetupSamples is the number of extra set-ups (pool start, output
	// file creation) timed for setup_s besides the passes' own.
	SetupSamples int
}

var sweepFull = sweepConfig{N: 100_000, Hs: []int{3, 5, 7}, Ks: []int{2, 8, 32}, Reps: 16, Workers: 2, MinPasses: 3, SetupSamples: 20}

// sweepCell is one grid cell, named and seeded the way cmd/sweep does.
type sweepCell struct {
	name string
	rule dynamics.Rule
	k    int
	bias int64
	seed uint64
}

func (c sweepConfig) cells(seed uint64) ([]sweepCell, error) {
	var cells []sweepCell
	for _, h := range c.Hs {
		rule, err := dynamics.ParseRule(fmt.Sprintf("hplurality:%d", h))
		if err != nil {
			return nil, err
		}
		for _, k := range c.Ks {
			name := fmt.Sprintf("%s/g=complete/n=%d/k=%d/c=%g", rule.Name(), c.N, k, 1.0)
			h := fnv.New64a()
			h.Write([]byte(name))
			cells = append(cells, sweepCell{
				name: name, rule: rule, k: k,
				bias: core.Corollary1Bias(c.N, k, 1),
				seed: rng.New(seed ^ h.Sum64()).Uint64(),
			})
		}
	}
	return cells, nil
}

// sweepPass is what one pass over the grid measured.
type sweepPass struct {
	setup, elapsed time.Duration
	peakMB         float64
	cellTimes      []float64 // ms
	agentRounds    float64
	out            []byte
	timings        []mc.RepTiming
}

func (c sweepConfig) run(o options) (*outcome, error) {
	oc := newOutcome()
	cells, err := c.cells(o.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var (
		setups, p50s, p99s         []float64
		agentRates, repRates, jobs []float64
		tracedOp, untracedOp       []float64
		waits, execs               []float64
		recordBytes, peaks         []float64
		hash0                      string
		measured                   time.Duration
	)
	for i := range c.SetupSamples {
		setup, err := c.startStop(filepath.Join(o.dir, fmt.Sprintf("setup-%d.jsonl", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	for pass := 0; pass < c.MinPasses || measured.Seconds() < o.seconds; pass++ {
		var t *tracer
		if o.trace && pass%2 == 0 {
			t = tr
		}
		resetPeakRSS()
		p, err := c.pass(o, t, cells, pass)
		if err != nil {
			return nil, err
		}
		measured += p.elapsed
		fmt.Fprintf(o.log, "hplurality-sweep: pass %d traced=%v: %d replicates in %.3fs, %.2f replicates/s\n",
			pass, t != nil, len(cells)*c.Reps, p.elapsed.Seconds(), float64(len(cells)*c.Reps)/p.elapsed.Seconds())
		oc.attempted += len(cells) * c.Reps

		out := p.out
		if o.corrupt && pass == 1 {
			out = flipByte(out)
		}
		sum := sha256.Sum256(out)
		hash := hex.EncodeToString(sum[:])
		if pass == 0 {
			hash0 = hash
			oc.notes["jsonl_sha256"] = hash
		} else if hash != hash0 {
			oc.fail("pass %d: JSONL sha256 %s differs from pass 0 (%s) for the same seed", pass, hash[:12], hash0[:12])
		}
		checkRecords(oc, out, len(cells)*c.Reps)

		secs := p.elapsed.Seconds()
		if t != nil {
			tracedOp = append(tracedOp, secs)
			for _, tm := range p.timings {
				waits = append(waits, float64(tm.QueueWait)/1e6)
				execs = append(execs, float64(tm.Exec)/1e6)
			}
			recordBytes = append(recordBytes, float64(len(p.out)))
			continue
		}
		untracedOp = append(untracedOp, secs)
		peaks = append(peaks, p.peakMB)
		setups = append(setups, p.setup.Seconds())
		p50s = append(p50s, quantile(p.cellTimes, 0.5))
		p99s = append(p99s, quantile(p.cellTimes, 0.99))
		agentRates = append(agentRates, p.agentRounds/secs)
		repRates = append(repRates, float64(len(cells)*c.Reps)/secs)
		jobs = append(jobs, float64(len(cells))/secs)
	}
	if !o.trace {
		oc.values["peak_rss_mb"] = median(peaks)
		oc.values["setup_s"] = median(setups)
		oc.values["agent_rounds_per_s"] = median(agentRates)
		oc.values["replicates_per_s"] = median(repRates)
		oc.values["jobs_per_s"] = median(jobs)
		oc.values["job_p50_ms"] = median(p50s)
		return oc, nil
	}

	spans := tr.snapshot()
	p := traceMetrics(oc, spans, tracedOp, untracedOp)
	v := oc.values
	v["job_p99_ms"] = median(p99s) // from the untraced passes
	steps := durations(spans, "engine.step")
	for i := range steps {
		steps[i] /= float64(c.N)
	}
	v["engine.step_ns_per_agent_p50"] = median(steps)
	v["engine.init_us_p50"] = median(durations(spans, "engine.init")) / 1e3
	v["mc.exec_ms_p50"] = quantile(execs, 0.5)
	v["mc.exec_ms_p90"] = quantile(execs, 0.9)
	v["mc.queue_wait_ms_p50"] = quantile(waits, 0.5)
	v["mc.queue_wait_ms_p90"] = quantile(waits, 0.9)
	v["mc.worker_idle_share"] = float64(p.Self["mc.workers"]) / float64(lanesOf(spans, "mc.workers"))
	v["mc.encode_us_p50"] = median(durations(spans, "mc.append_record")) / 1e3
	v["mc.records_bytes"] = median(recordBytes)
	return oc, nil
}

// startStop times one set-up: starting the pool and creating the output
// file at path. Both are released again.
func (c sweepConfig) startStop(path string) (time.Duration, error) {
	t0 := time.Now()
	pool := mc.NewPool(c.Workers)
	f, err := os.Create(path)
	setup := time.Since(t0)
	pool.Close()
	if err != nil {
		return 0, err
	}
	f.Close()
	return setup, os.Remove(path)
}

// pass runs the grid once. The timed part is pool start, output file
// creation (set-up) and the cells; the pool is closed outside it.
func (c sweepConfig) pass(o options, t *tracer, cells []sweepCell, pass int) (sweepPass, error) {
	var p sweepPass
	trace := fmt.Sprintf("hplurality-sweep/%d/%d", o.seed, pass)
	path := filepath.Join(o.dir, fmt.Sprintf("sweep-%d.jsonl", pass))
	root := t.start("bench.pass", trace, 0)
	t0 := time.Now()
	sp := t.start("mc.new_pool", trace, root.ID())
	pool := mc.NewPool(c.Workers)
	t.end(sp)
	sp = t.start("output.create", trace, root.ID())
	f, err := os.Create(path)
	t.end(sp)
	if err != nil {
		pool.Close()
		return p, err
	}
	defer os.Remove(path)
	p.setup = time.Since(t0)

	workers := span{ID: t.newID(), Trace: trace, Name: "mc.workers", Width: c.Workers}
	if t != nil {
		workers.Start = t.now()
	}
	t1 := time.Now()
	for _, cell := range cells {
		c0 := time.Now()
		rounds, err := c.runCell(t, pool, f, cell, root.ID(), workers.ID, &p.timings)
		if err != nil {
			f.Close()
			pool.Close()
			return p, err
		}
		p.cellTimes = append(p.cellTimes, float64(time.Since(c0))/1e6)
		p.agentRounds += float64(c.N) * float64(rounds)
	}
	err = f.Close()
	p.elapsed = time.Since(t1)
	p.peakMB = peakRSSMB()
	if t != nil {
		workers.End = t.now()
		t.add(workers)
	}
	t.end(root)
	pool.Close()
	if err != nil {
		return p, err
	}
	p.out, err = os.ReadFile(path)
	return p, err
}

// runCell runs one cell as an mc.Job, appending its records to f, and
// returns the summed rounds of its replicates. Replicate spans hang off
// the width-Workers lane of the pool; the cell's mc.Pool.Run span and
// its record appends sit on the coordinating goroutine's lane.
func (c sweepConfig) runCell(t *tracer, pool *mc.Pool, f *os.File, cell sweepCell, parent, workers int64, timings *[]mc.RepTiming) (int, error) {
	run := t.start("mc.run", cell.name, parent)
	job := mc.Job{Name: cell.name, Seed: cell.seed, Replicates: c.Reps, MaxRounds: 200_000}
	job.New = func(seed uint64) mc.Run {
		return func() mc.Record {
			trace := fmt.Sprintf("%s/seed=%d", cell.name, seed)
			rep := t.start("mc.replicate", trace, workers)
			r := rng.New(seed)
			init := colorcfg.Biased(c.N, cell.k, cell.bias)
			sp := t.start("engine.init", trace, rep.ID())
			e := engine.NewCliqueSampled(cell.rule, init, 1, r.Uint64())
			t.end(sp)
			cr := t.start("core.run", trace, rep.ID())
			res := core.Run(traced(e, t, trace, cr.ID()), core.Options{MaxRounds: job.MaxRounds, Rand: r})
			t.end(cr)
			e.Close()
			t.end(rep)
			return mc.Record{Rounds: res.Rounds, Success: res.WonInitialPlurality}
		}
	}
	opts := mc.RunOpts{Sink: func(rec mc.Record) error {
		sp := t.start("mc.append_record", cell.name, run.ID())
		err := mc.AppendRecord(f, rec)
		t.end(sp)
		return err
	}}
	if t != nil {
		opts.OnTiming = func(tm mc.RepTiming) { *timings = append(*timings, tm) }
	}
	recs, err := pool.Run(context.Background(), job, opts)
	t.end(run)
	rounds := 0
	for _, rec := range recs {
		rounds += rec.Rounds
	}
	return rounds, err
}

// checkRecords checks that out holds want records and that every line
// round-trips through mc.ReadRecords and mc.AppendRecord byte for byte.
func checkRecords(oc *outcome, out []byte, want int) {
	recs, err := mc.ReadRecords(bytes.NewReader(out))
	if err != nil {
		oc.fail("mc.ReadRecords: %v", err)
		return
	}
	if len(recs) != want {
		oc.fail("%d records, want %d", len(recs), want)
	}
	var again bytes.Buffer
	for _, rec := range recs {
		if err := mc.AppendRecord(&again, rec); err != nil {
			oc.fail("mc.AppendRecord: %v", err)
			return
		}
	}
	if !bytes.Equal(again.Bytes(), out) {
		oc.fail("records do not round-trip through mc.ReadRecords byte for byte")
	}
}

// lanesOf sums width × duration of the root spans with the given name.
func lanesOf(spans []span, name string) int64 {
	var sum int64
	for _, s := range spans {
		if s.Name == name && s.Parent == 0 {
			sum += int64(max(s.Width, 1)) * s.dur()
		}
	}
	return max(sum, 1)
}
