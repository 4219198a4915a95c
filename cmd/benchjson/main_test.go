package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: plurality
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkEngineMultinomialRound/k=2-8         	       1	        67.40 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineMultinomialRound/k=2-8         	       1	        72.60 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineSampledRound/w=1-8             	       1	   1390000 ns/op	      16 B/op	       1 allocs/op
BenchmarkFullRunConvergence-8                 	       1	     42600 ns/op
BenchmarkEngineGraphRoundSparse/n=10000000-8  	       1	 494800000 ns/op	        49.00 ns/agent	       0 B/op	       0 allocs/op
BenchmarkEngineGraphRoundSparse/n=10000000-8  	       1	 504800000 ns/op	        51.00 ns/agent	       0 B/op	       0 allocs/op
PASS
ok  	plurality	1.234s
`

func TestParseAggregates(t *testing.T) {
	report, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if report.Goos != "linux" || report.Goarch != "amd64" || !strings.Contains(report.CPU, "Xeon") {
		t.Errorf("header not captured: %+v", report)
	}
	multi, ok := report.Benchmarks["EngineMultinomialRound/k=2"]
	if !ok {
		t.Fatalf("missing aggregated benchmark; have %v", report.Benchmarks)
	}
	if multi.Samples != 2 || math.Abs(multi.NsPerOp-70.0) > 1e-9 {
		t.Errorf("bad aggregation: %+v", multi)
	}
	if multi.AllocsPerOp != 0 {
		t.Errorf("allocs = %v, want 0", multi.AllocsPerOp)
	}
	sampled := report.Benchmarks["EngineSampledRound/w=1"]
	if sampled.Samples != 1 || sampled.BytesPerOp != 16 || sampled.AllocsPerOp != 1 {
		t.Errorf("bad single sample: %+v", sampled)
	}
	// ns/op-only lines (no -benchmem) must still parse.
	if conv := report.Benchmarks["FullRunConvergence"]; conv.NsPerOp != 42600 {
		t.Errorf("bad ns-only line: %+v", conv)
	}
	// The custom ns/agent metric aggregates alongside ns/op.
	sparse := report.Benchmarks["EngineGraphRoundSparse/n=10000000"]
	if sparse.Samples != 2 || math.Abs(sparse.NsPerAgent-50.0) > 1e-9 {
		t.Errorf("bad ns/agent aggregation: %+v", sparse)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

func TestParseStripsProcsSuffixOnly(t *testing.T) {
	in := "BenchmarkX/n=10-4 	 5	 100 ns/op\n"
	report, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := report.Benchmarks["X/n=10"]; !ok {
		t.Errorf("suffix handling wrong: %v", report.Benchmarks)
	}
}

// TestParseKeepsCPUValuesApart covers -cpu 1,2: the testing package
// names the GOMAXPROCS=1 run without a suffix and the other with -2, and
// stripping both would average a serial and a parallel timing together.
func TestParseKeepsCPUValuesApart(t *testing.T) {
	in := "BenchmarkX 	 3	 300 ns/op\n" +
		"BenchmarkX-2 	 3	 200 ns/op\n" +
		"BenchmarkX 	 3	 100 ns/op\n" +
		"BenchmarkY-2 	 3	 50 ns/op\n"
	report, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"X/cpu=1": 200, "X/cpu=2": 200, "Y": 50}
	if len(report.Benchmarks) != len(want) {
		t.Fatalf("benchmarks %v, want keys of %v", report.Benchmarks, want)
	}
	for name, ns := range want {
		if got, ok := report.Benchmarks[name]; !ok || got.NsPerOp != ns {
			t.Errorf("%s: %+v (present %v), want %v ns/op", name, got, ok, ns)
		}
	}
}

// TestEndToEndAgainstRealBenchOutput runs one real micro-benchmark and
// pipes it through the parser, so the format assumption can't silently
// rot against future go versions.
func TestEndToEndAgainstRealBenchOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go test")
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "BenchmarkAliasSample$",
		"-benchtime", "1x", "-benchmem", "plurality/internal/dist")
	raw, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bench run failed: %v\n%s", err, raw)
	}
	report, err := Parse(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("parse of real output failed: %v\n%s", err, raw)
	}
	if _, ok := report.Benchmarks["AliasSample"]; !ok {
		t.Errorf("real benchmark not captured: %v", report.Benchmarks)
	}
}

// mergeReport writes one Report file for Merge tests.
func mergeReport(t *testing.T, dir, name, commit, date string, ns float64) string {
	t.Helper()
	r := Report{Commit: commit, Date: date, Benchmarks: map[string]Result{
		"EngineGraphRoundSparse/n=10000000": {NsPerOp: ns, Samples: 5},
	}}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readHistory parses a merged history file back into Reports.
func readHistory(t *testing.T, path string) []Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []Report
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r Report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("history line %q: %v", line, err)
		}
		out = append(out, r)
	}
	return out
}

// TestMergeAccumulates pins the -merge contract: reports accumulate
// across calls, entries stay date-sorted, same-commit reports
// deduplicate with the latest date winning, and re-merging an
// already-present report leaves the file byte-identical (idempotence —
// CI runs the merge unconditionally).
func TestMergeAccumulates(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "BENCH_HISTORY.jsonl")

	b := mergeReport(t, dir, "b.json", "bbb", "2026-02-01T00:00:00Z", 2)
	a := mergeReport(t, dir, "a.json", "aaa", "2026-01-01T00:00:00Z", 1)
	if err := Merge(hist, []string{b}); err != nil {
		t.Fatalf("first merge: %v", err)
	}
	if err := Merge(hist, []string{a}); err != nil {
		t.Fatalf("second merge: %v", err)
	}
	got := readHistory(t, hist)
	if len(got) != 2 || got[0].Commit != "aaa" || got[1].Commit != "bbb" {
		t.Fatalf("history not date-sorted: %+v", got)
	}

	// Re-running a commit replaces its entry (latest date wins) rather
	// than appending a duplicate.
	b2 := mergeReport(t, dir, "b2.json", "bbb", "2026-03-01T00:00:00Z", 3)
	if err := Merge(hist, []string{b2}); err != nil {
		t.Fatalf("re-merge: %v", err)
	}
	got = readHistory(t, hist)
	if len(got) != 2 || got[1].Date != "2026-03-01T00:00:00Z" {
		t.Fatalf("same-commit dedupe failed: %+v", got)
	}
	if got[1].Benchmarks["EngineGraphRoundSparse/n=10000000"].NsPerOp != 3 {
		t.Fatalf("latest report did not win: %+v", got[1])
	}

	// Idempotence: merging the winning report again changes nothing.
	before, _ := os.ReadFile(hist)
	if err := Merge(hist, []string{b2}); err != nil {
		t.Fatalf("idempotent merge: %v", err)
	}
	after, _ := os.ReadFile(hist)
	if string(before) != string(after) {
		t.Fatal("idempotent re-merge rewrote the history differently")
	}
}

func TestMergeRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "h.jsonl")
	if err := Merge("", []string{"x"}); err == nil {
		t.Error("missing -history accepted")
	}
	if err := Merge(hist, nil); err == nil {
		t.Error("no report files accepted")
	}
	if err := Merge(hist, []string{filepath.Join(dir, "nope.json")}); err == nil {
		t.Error("missing report file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if err := Merge(hist, []string{bad}); err == nil {
		t.Error("corrupt report accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"commit":"x","benchmarks":{}}`), 0o644)
	if err := Merge(hist, []string{empty}); err == nil {
		t.Error("benchmark-free report accepted")
	}
	// A corrupt history line fails loudly rather than silently dropping
	// committed perf data.
	good := mergeReport(t, dir, "g.json", "ccc", "2026-01-01T00:00:00Z", 1)
	os.WriteFile(hist, []byte("garbage\n"), 0o644)
	if err := Merge(hist, []string{good}); err == nil {
		t.Error("corrupt history accepted")
	}
}
