package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"plurality/internal/dynamics"
	"plurality/internal/mc"
	"plurality/internal/obs"
)

// testCfg is a grid small enough for unit tests that still exercises both
// engine paths: 3majority (closed-form multinomial) and 2choices
// (agent-level sampled).
func testCfg() config {
	return config{
		rules:     "3majority,2choices",
		graphs:    "complete",
		ns:        "1000",
		ks:        "2,4",
		cs:        "1",
		reps:      5,
		seed:      7,
		maxRounds: 5000,
		workers:   2,
		format:    "csv",
	}
}

func runSweep(t *testing.T, cfg config, done map[string]map[int]mc.Record) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep(context.Background(), cfg, &buf, done); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return buf.String()
}

func TestSweepCSVShape(t *testing.T) {
	cfg := testCfg()
	out := runSweep(t, cfg, nil)
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("output is not parseable CSV: %v", err)
	}
	header := strings.Split(csvHeader, ",")
	if len(rows) == 0 || strings.Join(rows[0], ",") != csvHeader {
		t.Fatalf("header mismatch: %v", rows[0])
	}
	wantRows := 2 * 1 * 2 * 1 // rules × ns × ks × cs
	if len(rows)-1 != wantRows {
		t.Fatalf("got %d data rows, want %d", len(rows)-1, wantRows)
	}
	col := func(row []string, name string) float64 {
		for i, h := range header {
			if h == name {
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					t.Fatalf("column %s = %q is not numeric: %v", name, row[i], err)
				}
				return v
			}
		}
		t.Fatalf("no column %s", name)
		return 0
	}
	for _, row := range rows[1:] {
		if len(row) != len(header) {
			t.Fatalf("row has %d cells, header has %d: %v", len(row), len(header), row)
		}
		lo, hi := col(row, "wilson_lo"), col(row, "wilson_hi")
		rate := col(row, "success_rate")
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("Wilson interval [%g, %g] outside [0,1] or inverted: %v", lo, hi, row)
		}
		if rate < 0 || rate > 1 {
			t.Errorf("success_rate %g outside [0,1]", rate)
		}
		if got := int(col(row, "reps")); got != testCfg().reps {
			t.Errorf("reps column = %d, want %d", got, testCfg().reps)
		}
	}
}

// TestSweepGraphGrid runs a grid across topology families resolved
// through the topo registry: the graph dimension multiplies the cells,
// non-clique cells run the CSR graph engine, and the output stays
// deterministic across worker counts (quenched graphs are derived from
// the cell name, not from scheduling).
func TestSweepGraphGrid(t *testing.T) {
	cfg := testCfg()
	cfg.rules = "3majority"
	cfg.ks = "2"
	cfg.graphs = "complete,regular:4,smallworld:4:0.1,barbell:4"
	cfg.reps = 3
	out := runSweep(t, cfg, nil)
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("unparseable CSV: %v", err)
	}
	if len(rows)-1 != 4 {
		t.Fatalf("got %d data rows, want one per graph", len(rows)-1)
	}
	for i, wantGraph := range []string{"complete", "regular:4", "smallworld:4:0.1", "barbell:4"} {
		if got := rows[i+1][1]; got != wantGraph {
			t.Errorf("row %d graph column = %q, want %q", i, got, wantGraph)
		}
	}
	cfg.workers = 1
	if runSweep(t, cfg, nil) != out {
		t.Fatal("graph grid output depends on -workers")
	}
}

// TestSweepBatchSampler pins the retirement of the sampler=batch mode: a
// resume file written by a -sampler batch grid names its cells with a
// "/sampler=batch" suffix, which no grid produces any more, so resuming it
// fails with "not in this grid" instead of appending default-sampler
// records to a batch-sampler file.
func TestSweepBatchSampler(t *testing.T) {
	cfg := testCfg()
	cfg.rules = "2choices"
	cfg.graphs = "regular:4"
	cfg.ks = "2"
	cfg.reps = 3
	cfg.format = "jsonl"
	out := runSweep(t, cfg, nil)
	if strings.Contains(out, "sampler=") {
		t.Fatalf("cell names still carry a sampler suffix:\n%s", out)
	}
	lines := strings.SplitAfter(out, "\n")
	batch := strings.ReplaceAll(strings.Join(lines[:2], ""), "/c=1\"", "/c=1/sampler=batch\"")
	if !strings.Contains(batch, "/sampler=batch") {
		t.Fatalf("fixture lacks the batch suffix:\n%s", batch)
	}
	cfg.out = filepath.Join(t.TempDir(), "batch.jsonl")
	if err := os.WriteFile(cfg.out, []byte(batch), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.resume = true
	if err := run(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "not in this grid") {
		t.Fatalf("resume of a batch-sampler file = %v, want not in this grid", err)
	}
}

func TestSweepRejectsBadGraphSpec(t *testing.T) {
	cfg := testCfg()
	cfg.graphs = "moebius"
	if err := sweep(context.Background(), cfg, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown graph") {
		t.Fatalf("bad -graphs error = %v, want unknown graph", err)
	}
	cfg.graphs = "regular:3"
	cfg.ns = "999" // odd n with odd d → n·d odd
	if err := sweep(context.Background(), cfg, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "even") {
		t.Fatalf("parity error = %v, want n·d even", err)
	}
}

func TestSweepDeterministicAcrossRunsAndWorkers(t *testing.T) {
	cfg := testCfg()
	first := runSweep(t, cfg, nil)
	if runSweep(t, cfg, nil) != first {
		t.Fatal("identical (seed, workers) reruns are not byte-identical")
	}
	cfg.workers = 1
	if runSweep(t, cfg, nil) != first {
		t.Fatal("output depends on -workers")
	}
	cfg.workers = 2
	cfg.format = "jsonl"
	j1 := runSweep(t, cfg, nil)
	cfg.workers = 4
	if runSweep(t, cfg, nil) != j1 {
		t.Fatal("JSONL output depends on -workers")
	}
}

func TestSweepJSONLRecords(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	out := runSweep(t, cfg, nil)
	recs, err := mc.ReadRecords(strings.NewReader(out))
	if err != nil {
		t.Fatalf("JSONL output unparseable: %v", err)
	}
	wantCells := 2 * 2
	if len(recs) != wantCells*cfg.reps {
		t.Fatalf("got %d records, want %d", len(recs), wantCells*cfg.reps)
	}
	byJob := mc.GroupByJob(recs)
	if len(byJob) != wantCells {
		t.Fatalf("got %d jobs, want %d", len(byJob), wantCells)
	}
	for job, byRep := range byJob {
		if len(byRep) != cfg.reps {
			t.Errorf("job %s has %d replicates, want %d", job, len(byRep), cfg.reps)
		}
		for rep, rec := range byRep {
			if rec.Rounds <= 0 || rec.Seed == 0 {
				t.Errorf("job %s rep %d has implausible record %+v", job, rep, rec)
			}
		}
	}
	// One line per record, each valid JSON.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
	}
}

// TestSweepResume interrupts a JSONL grid by truncating its output file
// to a record prefix, resumes, and requires the completed file to be
// byte-identical to an uninterrupted run.
func TestSweepResume(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	dir := t.TempDir()

	full := filepath.Join(dir, "full.jsonl")
	cfg.out = full
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("full run: %v", err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	lines := bytes.SplitAfter(want, []byte("\n"))
	cut := len(lines) / 3
	partial := filepath.Join(dir, "partial.jsonl")
	if err := os.WriteFile(partial, bytes.Join(lines[:cut], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.out = partial
	cfg.resume = true
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed grid differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

func TestSweepResumeRejectsForeignGrid(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	dir := t.TempDir()
	cfg.out = filepath.Join(dir, "grid.jsonl")
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.resume = true
	cfg.ks = "2" // narrower grid: the k=4 records on disk are now foreign
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("resume with a changed grid must fail, not mix stale records into the file")
	}
}

func TestSweepResumeRejectsReorderedGrid(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	dir := t.TempDir()
	cfg.out = filepath.Join(dir, "grid.jsonl")
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// Truncate to a prefix ending inside the first rule's cells, then
	// resume with the rules reversed: same cell set, different order, so
	// appending would interleave job blocks.
	raw, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if err := os.WriteFile(cfg.out, bytes.Join(lines[:3], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.resume = true
	cfg.rules = "2choices,3majority"
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("resume with reordered cells must fail, not append a misordered file")
	}
}

func TestSweepResumeRejectsWrongSeed(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	dir := t.TempDir()
	cfg.out = filepath.Join(dir, "grid.jsonl")
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.resume = true
	cfg.seed++
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("resume with a different -seed must fail, not silently mix streams")
	}
}

func TestRunFlagValidation(t *testing.T) {
	cfg := testCfg()
	cfg.format = "xml"
	if err := run(context.Background(), cfg); err == nil {
		t.Error("unknown -format accepted")
	}
	cfg = testCfg()
	cfg.resume = true // csv + no -out
	if err := run(context.Background(), cfg); err == nil {
		t.Error("-resume without -format jsonl -out accepted")
	}
}

// TestSweepRejectsOutOfRangeGrid: colour counts below 1, negative or NaN
// bias multipliers and a replicate count below 1 fail before the sweep
// writes anything, instead of panicking in a pool worker after the CSV
// header.
func TestSweepRejectsOutOfRangeGrid(t *testing.T) {
	for name, mutate := range map[string]func(*config){
		"ks 0":    func(c *config) { c.ks = "2,0" },
		"ks -3":   func(c *config) { c.ks = "-3" },
		"cs -1":   func(c *config) { c.cs = "1,-1" },
		"cs NaN":  func(c *config) { c.cs = "NaN" },
		"reps 0":  func(c *config) { c.reps = 0 },
		"reps -2": func(c *config) { c.reps = -2 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			mutate(&cfg)
			var buf bytes.Buffer
			if err := sweep(context.Background(), cfg, &buf, nil); err == nil {
				t.Fatal("accepted")
			}
			if buf.Len() != 0 {
				t.Fatalf("wrote %q before rejecting the grid", buf.String())
			}
		})
	}
	cfg := testCfg()
	cfg.cs = "0"
	if out := runSweep(t, cfg, nil); !strings.HasPrefix(out, csvHeader) {
		t.Fatalf("zero bias multiplier rejected or malformed: %q", out)
	}
}

// TestParseRule pins the -rules names the sweep accepts.
func TestParseRule(t *testing.T) {
	for _, ok := range []string{"3majority", "median", "polling", "2choices", "hplurality:3"} {
		if _, err := dynamics.ParseRule(ok); err != nil {
			t.Errorf("ParseRule(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"4majority", "hplurality:0", "hplurality:x", ""} {
		if _, err := dynamics.ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
}

func TestCellSeedStable(t *testing.T) {
	a := cellSeed(1, "rule/n=10/k=2/c=1")
	if a != cellSeed(1, "rule/n=10/k=2/c=1") {
		t.Error("cellSeed not deterministic")
	}
	if a == cellSeed(1, "rule/n=10/k=4/c=1") || a == cellSeed(2, "rule/n=10/k=2/c=1") {
		t.Error("cellSeed collides across cells/seeds")
	}
}

// TestSweepTraceDir pins the -trace-dir surface: one JSONL trace file
// per grid cell, one parseable trace run per replicate in replicate
// order, headers tied to the cell, and — because the observer consumes
// no rng — output records identical to an untraced run of the same grid.
func TestSweepTraceDir(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	plain := runSweep(t, cfg, nil)

	cfg.traceDir = t.TempDir()
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	traced := runSweep(t, cfg, nil)
	if traced != plain {
		t.Fatal("tracing changed the sweep's record output")
	}

	recs, err := mc.ReadRecords(strings.NewReader(traced))
	if err != nil {
		t.Fatal(err)
	}
	byJob := mc.GroupByJob(recs)
	files, err := filepath.Glob(filepath.Join(cfg.traceDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(byJob) {
		t.Fatalf("got %d trace files, want one per cell (%d)", len(files), len(byJob))
	}
	seenJobs := map[string]bool{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		traces, skipped, err := obs.ReadTraces(f)
		f.Close()
		if err != nil || skipped != 0 {
			t.Fatalf("%s: err=%v skipped=%d", path, err, skipped)
		}
		if len(traces) != cfg.reps {
			t.Fatalf("%s: %d trace runs, want %d", path, len(traces), cfg.reps)
		}
		job := traces[0].Header.Job
		byRep := byJob[job]
		if byRep == nil {
			t.Fatalf("%s: trace job %q not in the sweep output", path, job)
		}
		seenJobs[job] = true
		for i, tr := range traces {
			if tr.Header.Rep != i || tr.Header.Job != job {
				t.Fatalf("%s: trace %d is rep %d of %q, want replicate order", path, i, tr.Header.Rep, tr.Header.Job)
			}
			if tr.Header.N != 1000 || tr.Header.Seed != byRep[i].Seed {
				t.Fatalf("%s rep %d: header %+v not tied to record %+v", path, i, tr.Header, byRep[i])
			}
			if tr.Summary == nil || tr.Summary.Rounds != byRep[i].Rounds {
				t.Fatalf("%s rep %d: summary %+v disagrees with record rounds %d", path, i, tr.Summary, byRep[i].Rounds)
			}
		}
	}
	if len(seenJobs) != len(byJob) {
		t.Fatalf("trace files cover %d cells, want %d", len(seenJobs), len(byJob))
	}
}

// TestTraceFileName pins the sanitization: output is filesystem-safe on
// every platform and distinct cells map to distinct names in practice.
func TestTraceFileName(t *testing.T) {
	got := traceFileName("3majority/g=smallworld:4:0.1/n=1000/k=2/c=0.5")
	want := "3majority_g_smallworld_4_0.1_n_1000_k_2_c_0.5.jsonl"
	if got != want {
		t.Fatalf("traceFileName = %q, want %q", got, want)
	}
	if strings.ContainsAny(got, "/\\:=") {
		t.Fatalf("unsafe bytes survived: %q", got)
	}
}

// TestSweepMmapUnmapsGraphs pins that each graph cell releases its
// mmap-backed topology once its replicates finish, so a long -graph-mode
// mmap sweep does not hold one mapping per cell until the process exits.
func TestSweepMmapUnmapsGraphs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps")
	}
	cfg := testCfg()
	cfg.rules = "3majority"
	cfg.ks = "2"
	cfg.ns = "400,900"
	cfg.graphs = "regular:4,smallworld:4:0.1,torus"
	cfg.graphMode = "mmap"
	cfg.graphDir = t.TempDir()
	cfg.reps = 3
	runSweep(t, cfg, nil)
	files, err := filepath.Glob(filepath.Join(cfg.graphDir, "*.csr"))
	if err != nil || len(files) != 6 {
		t.Fatalf("mmap sweep left %d CSR files (%v), want one per graph cell (6)", len(files), err)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, cfg.graphDir+string(filepath.Separator)) {
			t.Errorf("graph file still mapped after the sweep: %s", line)
		}
	}
}
