package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"plurality/internal/mc"
	"plurality/internal/rng"
	"plurality/internal/service"
)

// daemonConfig sizes the daemon-jobs workload: a closed loop of two HTTP
// clients against an in-process pluralityd (service.New served by
// httptest) journaling to a data directory. Client 0 submits with
// ?wait=1 and then fetches the records; client 1 submits with ?wait=0 and
// streams ?follow=1 to EOF — the README's two client flows. Every
// iteration starts a fresh server, so set-up is timed several times.
type daemonConfig struct {
	Spec     service.JobSpec
	Workers  int
	MinIters int
	// IterJobs is the number of jobs each client completes per iteration
	// (per server lifetime); a run has at least MinIters iterations and
	// lasts at least the run length.
	IterJobs int
	// SetupSamples is the number of extra server start-ups timed for
	// setup_s besides the iterations' own.
	SetupSamples int
	// CheckEvery picks the fixed sample of jobs (every CheckEvery-th of
	// each client, starting with the first) whose served bytes are
	// compared with JobSpec.MCJob run directly on an mc.Pool.
	CheckEvery int
}

var daemonFull = daemonConfig{
	Spec:    service.JobSpec{Rule: "3majority", Engine: "multinomial", N: 1_000_000, K: 8, Replicates: 32},
	Workers: 2, MinIters: 3, IterJobs: 500, SetupSamples: 20, CheckEvery: 64,
}

// clientJob is one job as a client saw it.
type clientJob struct {
	id      string
	spec    service.JobSpec
	latency time.Duration
	body    []byte // served records, kept only for the checked sample
	lines   int
}

// daemonIter is what one server lifetime measured.
type daemonIter struct {
	setup, window  time.Duration
	jobs           []clientJob
	agentRounds    float64
	rejected       int
	syncs, written int64
	gcCycles       float64
	allocMB        float64
}

func (c daemonConfig) run(o options) (*outcome, error) {
	oc := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	pool := mc.NewPool(c.Workers) // for the direct runs of the checked sample
	defer pool.Close()
	var (
		setups, p50s, p99s, jobRates, repRates, agentRates []float64
		tracedOp, untracedOp                               []float64
		jobsTraced, rejected                               int
		syncs, written                                     int64
		gcCycles, allocMB, peaks                           []float64
		measured                                           time.Duration
		total                                              int
	)
	for range c.SetupSamples {
		setup, err := c.startStop(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	for it := 0; it < c.MinIters || measured.Seconds() < o.seconds; it++ {
		debug.FreeOSMemory() // the previous server's garbage must not inflate this iteration's peak
		resetPeakRSS()
		var t *tracer
		if o.trace && it%2 == 0 {
			t = tr
		}
		d, err := c.iteration(o, t, it)
		if err != nil {
			return nil, err
		}
		peak := peakRSSMB()
		latencies := make([]float64, len(d.jobs))
		for i, j := range d.jobs {
			latencies[i] = float64(j.latency) / 1e6
		}
		fmt.Fprintf(o.log, "daemon-jobs: iteration %d traced=%v: %d jobs in %.3fs, %.1f jobs/s, p50 %.3f ms, p99 %.3f ms\n",
			it, t != nil, len(d.jobs), d.window.Seconds(), float64(len(d.jobs))/d.window.Seconds(),
			quantile(latencies, 0.5), quantile(latencies, 0.99))
		measured += d.window
		total += len(d.jobs)
		oc.attempted += len(d.jobs) + d.rejected
		rejected += d.rejected
		for i := 0; i < d.rejected; i++ {
			oc.fail("iteration %d: a submission was rejected", it)
		}
		c.check(oc, pool, o, it, d.jobs)
		perJob := d.window.Seconds() / float64(max(len(d.jobs), 1))
		if t != nil {
			tracedOp = append(tracedOp, perJob)
			jobsTraced += len(d.jobs)
			syncs, written = syncs+d.syncs, written+d.written
			gcCycles = append(gcCycles, d.gcCycles)
			allocMB = append(allocMB, d.allocMB)
			continue
		}
		untracedOp = append(untracedOp, perJob)
		peaks = append(peaks, peak)
		setups = append(setups, d.setup.Seconds())
		p50s = append(p50s, quantile(latencies, 0.5))
		p99s = append(p99s, quantile(latencies, 0.99))
		jobRates = append(jobRates, float64(len(d.jobs))/d.window.Seconds())
		repRates = append(repRates, float64(len(d.jobs)*c.Spec.Replicates)/d.window.Seconds())
		agentRates = append(agentRates, d.agentRounds/d.window.Seconds())
	}
	oc.notes["jobs"] = fmt.Sprint(total)
	if !o.trace {
		oc.values["peak_rss_mb"] = median(peaks)
		oc.notes["latency_samples_per_iteration"] = fmt.Sprint(2 * c.IterJobs)
		oc.values["setup_s"] = median(setups)
		oc.values["jobs_per_s"] = median(jobRates)
		oc.values["replicates_per_s"] = median(repRates)
		oc.values["agent_rounds_per_s"] = median(agentRates)
		oc.values["job_p50_ms"] = median(p50s)
		return oc, nil
	}

	v := oc.values
	v["job_p99_ms"] = median(p99s) // from the untraced iterations
	spans := tr.snapshot()
	offPath := attachJournal(spans)
	oc.notes["journal_spans_off_path"] = fmt.Sprint(offPath)
	traceMetrics(oc, spans, tracedOp, untracedOp)
	for _, name := range []string{"service.sync_submit", "service.records", "service.async_submit", "service.follow"} {
		ms := durations(spans, name)
		v[name+"_ms_p50"] = quantile(ms, 0.5) / 1e6
		v[name+"_ms_p99"] = quantile(ms, 0.99) / 1e6
	}
	w, f := durations(spans, "journal.write"), durations(spans, "journal.fsync")
	v["journal.write_us_p50"], v["journal.write_us_p99"] = quantile(w, 0.5)/1e3, quantile(w, 0.99)/1e3
	v["journal.fsync_us_p50"], v["journal.fsync_us_p99"] = quantile(f, 0.5)/1e3, quantile(f, 0.99)/1e3
	jobs := float64(max(jobsTraced, 1))
	v["journal.fsyncs_per_job"] = float64(syncs) / jobs
	v["journal.bytes_per_job"] = float64(written) / jobs
	v["service.rejected"] = float64(rejected)
	v["runtime.gc_cycles"] = median(gcCycles)
	v["runtime.alloc_mb_per_job"] = median(allocMB)
	return oc, nil
}

// startStop times one server start-up (service.New with its journal
// opened, httptest listening) and shuts the server down again.
func (c daemonConfig) startStop(o options) (time.Duration, error) {
	t0 := time.Now()
	srv, err := service.New(service.Options{Workers: c.Workers, DataDir: filepath.Join(o.dir, "journal"), FS: newMemFS()})
	if err != nil {
		return 0, err
	}
	ts := httptest.NewServer(srv)
	setup := time.Since(t0)
	ts.Close()
	srv.Close()
	return setup, nil
}

// iteration starts a server, runs both clients for IterJobs jobs each, lists
// the jobs' final state, and shuts the server down.
func (c daemonConfig) iteration(o options, t *tracer, it int) (daemonIter, error) {
	var d daemonIter
	prefix := fmt.Sprintf("daemon-jobs/%d/%d/", o.seed, it)
	opts := service.Options{Workers: c.Workers, DataDir: filepath.Join(o.dir, "journal"), FS: newMemFS()}
	var jfs *journalFS
	if t != nil {
		jfs = newJournalFS(opts.FS, t, prefix)
		opts.FS = jfs
	}
	t0 := time.Now()
	srv, err := service.New(opts)
	if err != nil {
		return d, err
	}
	ts := httptest.NewServer(srv)
	d.setup = time.Since(t0)
	defer srv.Close()
	defer ts.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	var ms0, ms1 runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&ms0)
		jfs.armed.Store(true)
	}
	start := time.Now()
	var wg sync.WaitGroup
	results := make([][]clientJob, 2)
	rejected := make([]int, 2)
	errs := make([]error, 2)
	for client := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[client], rejected[client], errs[client] = c.client(hc, ts.URL, t, o.seed, client, prefix)
		}()
	}
	wg.Wait()
	d.window = time.Since(start)
	d.jobs = append(results[0], results[1]...)
	if t != nil {
		jfs.armed.Store(false)
		runtime.ReadMemStats(&ms1)
		d.gcCycles = float64(ms1.NumGC - ms0.NumGC)
		d.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(max(len(d.jobs), 1))
		d.syncs, d.written = jfs.counts()
	}
	d.rejected = rejected[0] + rejected[1]
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	d.agentRounds, err = c.finalStates(hc, ts.URL, d.jobs)
	return d, err
}

// client runs one closed loop of IterJobs jobs: client 0 submits with
// ?wait=1 and fetches the records, client 1 submits with ?wait=0 and
// follows the records to EOF. A job's latency runs from sending the POST
// to receiving the last record byte.
func (c daemonConfig) client(hc *http.Client, url string, t *tracer, seed uint64, client int, prefix string) ([]clientJob, int, error) {
	lane := t.start("bench.client", fmt.Sprintf("%sc%d", prefix, client), 0)
	defer t.end(lane)
	seeds := rng.New(seed ^ uint64(client+1)*0x9e3779b97f4a7c15)
	var jobs []clientJob
	rejected := 0
	for i := range c.IterJobs {
		spec := c.Spec
		spec.Seed = seeds.Uint64()
		body, err := json.Marshal(spec)
		if err != nil {
			return jobs, rejected, err
		}
		job := t.start("bench.job", "", lane.ID())
		start := time.Now()
		submit, fetch, query := "service.sync_submit", "service.records", "?wait=1"
		if client == 1 {
			submit, fetch, query = "service.async_submit", "service.follow", "?wait=0"
		}
		sp := t.start(submit, "", job.ID())
		status, info, err := postJob(hc, url+"/v1/jobs"+query, body)
		if err != nil {
			return jobs, rejected, err
		}
		trace := prefix + info.ID
		t.endTrace(sp, trace)
		if status != http.StatusOK && status != http.StatusAccepted {
			rejected++
			t.endTrace(job, trace)
			continue
		}
		path := url + "/v1/jobs/" + info.ID + "/records"
		if client == 1 {
			path += "?follow=1"
		}
		sp = t.start(fetch, trace, job.ID())
		recs, err := get(hc, path)
		t.end(sp)
		if err != nil {
			return jobs, rejected, err
		}
		cj := clientJob{id: info.ID, spec: spec, latency: time.Since(start), lines: bytes.Count(recs, []byte("\n"))}
		t.endTrace(job, trace)
		if i%c.CheckEvery == 0 {
			cj.body = recs
		}
		jobs = append(jobs, cj)
	}
	return jobs, rejected, nil
}

func postJob(hc *http.Client, url string, body []byte) (int, service.JobInfo, error) {
	var info service.JobInfo
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, info, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, info, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(b, &info); err != nil {
			return 0, info, fmt.Errorf("submit response: %w", err)
		}
	}
	return resp.StatusCode, info, nil
}

func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return b, nil
}

// finalStates lists the server's jobs after the clients stopped, marks
// every job that did not end done with all its records for check, and
// returns the agent-rounds the jobs simulated.
func (c daemonConfig) finalStates(hc *http.Client, url string, jobs []clientJob) (float64, error) {
	b, err := get(hc, url+"/v1/jobs")
	if err != nil {
		return 0, err
	}
	var list struct {
		Jobs []service.JobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		return 0, fmt.Errorf("job list: %w", err)
	}
	byID := make(map[string]service.JobInfo, len(list.Jobs))
	for _, j := range list.Jobs {
		byID[j.ID] = j
	}
	rounds := 0.0
	for i := range jobs {
		info, ok := byID[jobs[i].id]
		if !ok || info.State != service.StateDone || info.Records != c.Spec.Replicates || info.Aggregate == nil {
			jobs[i].lines = -1 // reported by check
			continue
		}
		rounds += info.Aggregate.Rounds.Mean * float64(info.Aggregate.Replicates) * float64(c.Spec.N)
	}
	return rounds, nil
}

// check verifies every job of an iteration ended done with all its
// records, and that the checked sample's served bytes equal the records
// of JobSpec.MCJob run directly on an mc.Pool: the cross-surface
// determinism contract.
func (c daemonConfig) check(oc *outcome, pool *mc.Pool, o options, it int, jobs []clientJob) {
	for _, j := range jobs {
		if j.lines == -1 {
			oc.fail("iteration %d: job %s did not end done with %d records", it, j.id, c.Spec.Replicates)
			continue
		}
		if j.lines != c.Spec.Replicates {
			oc.fail("iteration %d: job %s served %d records, want %d", it, j.id, j.lines, c.Spec.Replicates)
		}
		if j.body == nil {
			continue
		}
		spec := j.spec
		spec.Normalize()
		if err := spec.Validate(); err != nil {
			oc.fail("job %s: %v", j.id, err)
			continue
		}
		var direct bytes.Buffer
		_, err := pool.Run(context.Background(), spec.MCJob(), mc.RunOpts{Sink: func(rec mc.Record) error {
			return mc.AppendRecord(&direct, rec)
		}})
		if err != nil {
			oc.fail("job %s run directly: %v", j.id, err)
			continue
		}
		served := j.body
		if o.corrupt {
			served = flipByte(served)
		}
		if !bytes.Equal(served, direct.Bytes()) {
			oc.fail("iteration %d: job %s served records differ from JobSpec.MCJob run directly", it, j.id)
		}
	}
}
