// Command perfbench is the repository's benchmark: one command that runs
// a workload through the simulator's layers, checks the outputs, and
// prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload sparse-run --seed 1 --seconds 20 --trace 0
//
// Workloads (metrics.json records why each was chosen and which layers it
// loads and bypasses):
//
//   - sparse-run: one plurality-style 3-majority run to consensus on a
//     random regular:8 CSR graph (topo, GraphEngine, core);
//   - hplurality-sweep: a sweep -format jsonl grid of h-plurality cells
//     on the clique (CliqueSampled, mc.Pool, mc.AppendRecord);
//   - daemon-jobs: two closed-loop HTTP clients against an in-process
//     pluralityd with a journal (service, journal, multinomial engine).
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 every other iteration records spans around each call
// into a layer; the run reports the per-layer metrics, derived from
// those spans, and writes them to .bench_build/trace-<workload>.jsonl.
// The last line of standard output is the result object; the line before
// it records the run conditions.
package main

import (
	"bufio"
	"cmp"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

//go:embed metrics.json
var metricsJSON []byte

// catalog is the part of metrics.json the benchmark reads: the workloads
// and metrics it declares, and for each per-layer metric the workloads
// that measure it and the end-to-end metric it should move there.
type catalog struct {
	HeldOutSeed uint64                     `json:"held_out_seed"`
	Workloads   map[string]json.RawMessage `json:"workloads"`
	EndToEnd    map[string]struct {
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer map[string]struct {
		Unit  string            `json:"unit"`
		Moves map[string]string `json:"moves"`
	} `json:"per_layer"`
}

func loadCatalog() (catalog, error) {
	var c catalog
	err := json.Unmarshal(metricsJSON, &c)
	return c, err
}

// options is what every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// dir is a scratch directory for output files and journals, removed
	// when the run ends.
	dir string
	// corrupt flips one record byte before the output checks: the
	// negative control that proves the checks can fail.
	corrupt bool
	// log receives one progress line per iteration.
	log io.Writer
}

// outcome is what a workload measured.
type outcome struct {
	attempted int
	// failures lists every failed operation or check.
	failures []string
	// values holds the metrics measured, by name.
	values map[string]float64
	// spans are the traced iterations' spans, written to the trace file.
	spans []span
	// notes are extra run conditions (journal filesystem, output hash).
	notes map[string]string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]string{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workload runs one named workload at its full size.
type workload func(options) (*outcome, error)

var workloads = map[string]workload{
	"sparse-run":       sparseFull.run,
	"hplurality-sweep": sweepFull.run,
	"daemon-jobs":      daemonFull.run,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sparse-run | hplurality-sweep | daemon-jobs")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 20, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runWorkload(*name, *seed, *seconds, *traceFlag, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if errors.Is(err, errChecksFailed) {
			return 1
		}
		return 2
	}
	return 0
}

var errChecksFailed = errors.New("output checks failed")

func runWorkload(name string, seed uint64, seconds, traceFlag int, stdout, stderr io.Writer) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown --workload %q", name)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", traceFlag)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if b, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(b), "module plurality\n") {
		return fmt.Errorf("%s is not the root of a checkout of the plurality module", root)
	}
	cat, err := loadCatalog()
	if err != nil {
		return fmt.Errorf("metrics.json: %w", err)
	}
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cond := readConditions(root)
	cond.Workload, cond.Seed, cond.HeldOut, cond.Seconds, cond.Trace = name, seed, cat.HeldOutSeed, seconds, traceFlag == 1
	cond.ScratchFS = fsType(dir)
	start := time.Now()
	oc, err := w(options{seed: seed, seconds: float64(seconds), trace: traceFlag == 1, dir: dir, log: stderr})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d measured in %.1fs\n", name, seed, time.Since(start).Seconds())
	res, err := buildResult(cat, name, traceFlag == 1, oc)
	if err != nil {
		return err
	}
	if traceFlag == 1 {
		path := filepath.Join(out, "trace-"+name+".jsonl")
		if err := writeTraceFile(path, cond, oc); err != nil {
			return err
		}
	}
	for _, f := range oc.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	condLine, err := json.Marshal(map[string]any{"conditions": cond, "notes": oc.notes})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", condLine, line)
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}

// buildResult selects the metrics a run reports: every end-to-end metric
// untraced, every per-layer metric traced. A per-layer metric of a layer
// the workload bypasses reads 0; one the workload claims to measure but
// did not is an error.
func buildResult(cat catalog, name string, traced bool, oc *outcome) (result, error) {
	res := result{
		Attempted: oc.attempted,
		Failed:    len(oc.failures),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if traced {
		oc.values["error_rate"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		for m, d := range cat.PerLayer {
			v, ok := oc.values[m]
			if _, measured := d.Moves[name]; measured && !ok {
				return res, fmt.Errorf("%s did not measure per-layer metric %s", name, m)
			}
			res.Metrics[m] = metricValue{Value: v, Unit: d.Unit}
		}
		return res, nil
	}
	for m, d := range cat.EndToEnd {
		v, ok := oc.values[m]
		if !ok {
			return res, fmt.Errorf("%s did not measure end-to-end metric %s", name, m)
		}
		res.Metrics[m] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// writeTraceFile writes the traced iterations' spans as JSONL, in start
// order, after a header line with the run conditions and the self-time
// share of every span name.
func writeTraceFile(path string, cond conditions, oc *outcome) error {
	p := selfTimes(oc.spans)
	self := map[string]float64{}
	for n := range p.Self {
		self[n] = p.share(n)
	}
	spans := slices.SortedFunc(slices.Values(oc.spans), func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{"conditions": cond, "notes": oc.notes, "self_share": self, "spans": len(spans)})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// traceMetrics adds the metrics every traced workload reports and the
// self-time check: the layer self times plus the unattributed time must
// add up to the lanes' wall time.
func traceMetrics(oc *outcome, spans []span, tracedOp, untracedOp []float64) profile {
	p := selfTimes(spans)
	if err := checkProfile(p); err != nil {
		oc.fail("%v", err)
	}
	if p.Lanes > 0 {
		oc.values["trace.unattributed_share"] = float64(p.Unattributed) / float64(p.Lanes)
	}
	if u := median(untracedOp); u > 0 && len(tracedOp) > 0 {
		oc.values["trace.overhead_share"] = median(tracedOp)/u - 1
	}
	oc.spans = spans
	return p
}
