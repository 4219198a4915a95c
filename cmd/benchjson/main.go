// Command benchjson converts `go test -bench` output into a
// machine-readable JSON summary. CI pipes the bench-regression run
// through it and uploads BENCH_RESULTS.json as an artifact, so the perf
// trajectory of the repository is a sequence of structured files instead
// of raw benchmark logs:
//
//	go test -run='^$' -bench=BenchmarkEngine -benchtime=1x -count=5 . | go run ./cmd/benchjson > BENCH_RESULTS.json
//
// Repeated samples of one benchmark (from -count=N) are aggregated to
// their mean; the trailing GOMAXPROCS suffix (`-8`) is stripped so names
// are stable across runners. A benchmark run at several GOMAXPROCS
// values in one input (-cpu 1,2) keeps them apart as `Name/cpu=1` and
// `Name/cpu=2`.
//
// -merge folds per-commit report files into a committed history — one
// compact Report per line, deduplicated by commit (latest date wins)
// and sorted by date — so the perf trajectory lives in the repository
// instead of scattered CI artifacts:
//
//	go run ./cmd/benchjson -merge -history BENCH_HISTORY.jsonl BENCH_RESULTS.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Stamp flags: without a commit and date in the document, the uploaded
// artifacts are indistinguishable snapshots and the perf trajectory cannot
// be reconstructed from them. CI passes both explicitly; -commit falls
// back to $GITHUB_SHA so a bare `go run ./cmd/benchjson` inside an Actions
// step is stamped even without flags.
var (
	commitFlag  = flag.String("commit", os.Getenv("GITHUB_SHA"), "git commit the benchmarks were run at (default $GITHUB_SHA)")
	dateFlag    = flag.String("date", "", "UTC timestamp of the run, RFC 3339 (default: now)")
	mergeFlag   = flag.Bool("merge", false, "fold the report files given as arguments into -history instead of parsing bench output")
	historyFlag = flag.String("history", "", "history JSONL file for -merge (created if missing, rewritten deduplicated and date-sorted)")
)

// Result is the aggregated measurement of one benchmark.
type Result struct {
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerAgent is the custom ReportMetric of the sparse graph-round
	// benchmarks (per-op time divided by n) — the unit the hot-path perf
	// budget is written in.
	NsPerAgent  float64 `json:"ns_per_agent,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// Report is the top-level JSON document.
type Report struct {
	Commit     string            `json:"commit,omitempty"`
	Date       string            `json:"date,omitempty"`
	Goos       string            `json:"goos,omitempty"`
	Goarch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	flag.Parse()
	if *mergeFlag {
		if err := Merge(*historyFlag, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	report, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	report.Commit = *commitFlag
	report.Date = *dateFlag
	if report.Date == "" {
		report.Date = time.Now().UTC().Format(time.RFC3339)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Merge folds the Report files in paths into the history JSONL file:
// existing history lines are read back, reports with the same commit
// are deduplicated (the latest date wins), and the file is rewritten as
// one compact Report per line in ascending date order. The rewrite is
// idempotent — merging an already-present report is a no-op — which is
// what lets CI run it unconditionally on every push.
func Merge(history string, paths []string) error {
	if history == "" {
		return fmt.Errorf("-merge needs -history FILE")
	}
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs at least one report file argument")
	}
	var entries []Report
	if data, err := os.ReadFile(history); err == nil {
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var r Report
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return fmt.Errorf("%s:%d: %v", history, lineNo, err)
			}
			entries = append(entries, r)
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("%s: %v", history, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r Report
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if len(r.Benchmarks) == 0 {
			return fmt.Errorf("%s: no benchmarks in report", path)
		}
		entries = append(entries, r)
	}
	// Dedupe by commit, latest date winning; unstamped reports key on
	// their date so hand-run snapshots still accumulate.
	latest := map[string]Report{}
	for _, r := range entries {
		key := r.Commit
		if key == "" {
			key = "@" + r.Date
		}
		if prev, ok := latest[key]; !ok || r.Date > prev.Date {
			latest[key] = r
		}
	}
	merged := make([]Report, 0, len(latest))
	for _, r := range latest {
		merged = append(merged, r)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Date != merged[j].Date {
			return merged[i].Date < merged[j].Date
		}
		return merged[i].Commit < merged[j].Commit
	})
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	for _, r := range merged {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return os.WriteFile(history, []byte(buf.String()), 0o644)
}

// benchLine matches one benchmark result line: name, iteration count,
// then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// procsSuffix is the trailing -GOMAXPROCS tag appended by the testing
// package (which appends none at GOMAXPROCS 1).
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

// Parse reads `go test -bench` output and aggregates per-benchmark
// samples. Header lines (goos/goarch/cpu) are captured; non-benchmark
// lines are ignored. An input with no benchmark lines is an error.
func Parse(r io.Reader) (*Report, error) {
	type acc struct {
		ns, nsAgent, bytes, allocs float64
		samples                    int
	}
	type key struct{ name, procs string }
	accs := map[key]*acc{}
	procsSeen := map[string]map[string]bool{}
	report := &Report{Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			report.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs := "1"
		if pm := procsSuffix.FindStringSubmatch(m[1]); pm != nil {
			procs = pm[1]
		}
		name := procsSuffix.ReplaceAllString(m[1], "")
		name = strings.TrimPrefix(name, "Benchmark")
		if procsSeen[name] == nil {
			procsSeen[name] = map[string]bool{}
		}
		procsSeen[name][procs] = true
		a := accs[key{name, procs}]
		if a == nil {
			a = &acc{}
			accs[key{name, procs}] = a
		}
		fields := strings.Fields(m[2])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("line %d: odd value/unit fields in %q", lineNo, line)
		}
		sampled := false
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, fields[i], err)
			}
			switch fields[i+1] {
			case "ns/op":
				a.ns += v
				sampled = true
			case "ns/agent":
				a.nsAgent += v
			case "B/op":
				a.bytes += v
			case "allocs/op":
				a.allocs += v
			}
		}
		if sampled {
			a.samples++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(accs) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	for k, a := range accs {
		if a.samples == 0 {
			continue
		}
		name := k.name
		if len(procsSeen[name]) > 1 {
			name += "/cpu=" + k.procs
		}
		s := float64(a.samples)
		report.Benchmarks[name] = Result{
			NsPerOp:     a.ns / s,
			NsPerAgent:  a.nsAgent / s,
			BytesPerOp:  a.bytes / s,
			AllocsPerOp: a.allocs / s,
			Samples:     a.samples,
		}
	}
	return report, nil
}
