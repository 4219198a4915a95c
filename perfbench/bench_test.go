package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"

	"plurality/internal/service"
)

// Tiny sizes of the three workloads, for the smoke test.
var (
	sparseTiny = sparseConfig{N: 20_000, K: 4, Graph: "regular:8", Degree: 8, Workers: 2, MinIters: 2}
	sweepTiny  = sweepConfig{N: 2_000, Hs: []int{3, 5}, Ks: []int{2, 4}, Reps: 4, Workers: 2, MinPasses: 2, SetupSamples: 2}
	daemonTiny = daemonConfig{
		Spec:    service.JobSpec{Rule: "3majority", Engine: "multinomial", N: 10_000, K: 4, Replicates: 4},
		Workers: 2, MinIters: 2, IterJobs: 6, SetupSamples: 2, CheckEvery: 4,
	}
	tiny = map[string]workload{
		"sparse-run":       sparseTiny.run,
		"hplurality-sweep": sweepTiny.run,
		"daemon-jobs":      daemonTiny.run,
	}
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkJSON is the part of BENCHMARK.json the smoke test compares
// with metrics.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

// TestCatalogMatchesBenchmarkJSON checks that BENCHMARK.json and
// metrics.json declare the same workloads and metrics with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	sort.Strings(names)
	if got, want := names, sortedKeys(cat.Workloads); !slices.Equal(got, want) {
		t.Errorf("workloads: BENCHMARK.json %v, metrics.json %v", got, want)
	}
	units := map[string]string{}
	for _, m := range bj.EndToEnd {
		units[m.Name] = m.Unit
		if d, ok := cat.EndToEnd[m.Name]; !ok || d.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s) is not in metrics.json with that unit", m.Name, m.Unit)
		}
	}
	for _, m := range bj.PerLayer {
		units[m.Name] = m.Unit
		if d, ok := cat.PerLayer[m.Name]; !ok || d.Unit != m.Unit {
			t.Errorf("per-layer %s (%s) is not in metrics.json with that unit", m.Name, m.Unit)
		}
		for w, moves := range cat.PerLayer[m.Name].Moves {
			if _, ok := cat.Workloads[w]; !ok {
				t.Errorf("per-layer %s names unknown workload %s", m.Name, w)
			}
			_, e2e := cat.EndToEnd[moves]
			if _, layer := cat.PerLayer[moves]; !e2e && !layer && moves != "none" {
				t.Errorf("per-layer %s moves unknown end-to-end metric %s", m.Name, moves)
			}
		}
	}
	if len(units) != len(cat.EndToEnd)+len(cat.PerLayer) {
		t.Errorf("BENCHMARK.json declares %d metrics, metrics.json %d", len(units), len(cat.EndToEnd)+len(cat.PerLayer))
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks that the outputs pass their checks and every metric
// BENCHMARK.json declares is emitted with its unit under a valid name.
func TestWorkloadsSmoke(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	bj := readBenchmarkJSON(t)
	for _, name := range sortedKeys(tiny) {
		for _, traced := range []bool{false, true} {
			oc, err := tiny[name](options{seed: 3, seconds: 0.2, trace: traced, dir: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res, err := buildResult(cat, name, traced, oc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failures %v", name, traced, res.Correct, res.Attempted, oc.failures)
			}
			declared := bj.EndToEnd
			if traced {
				declared = bj.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %+v", name, traced, m.Name, m.Unit, got)
				}
				if !metricName.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestNegativeControl flips one record byte before the output checks of
// the record-producing workloads: the checks must fail.
func TestNegativeControl(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hplurality-sweep", "daemon-jobs"} {
		oc, err := tiny[name](options{seed: 3, seconds: 0.2, dir: t.TempDir(), corrupt: true, log: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := buildResult(cat, name, false, oc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a flipped record byte passed the checks", name)
		}
	}
}

// TestSelfTimes checks the self-time accounting on hand-made spans: a
// well-nested trace adds up to its lanes' wall time, and a child that
// leaves its parent or overlaps a sibling breaks the sum.
func TestSelfTimes(t *testing.T) {
	good := []span{
		{ID: 1, Name: "bench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.run", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "engine.step", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "engine.step", Start: 50, End: 80},
		{ID: 5, Name: "mc.workers", Start: 0, End: 100, Width: 2},
		{ID: 6, Parent: 5, Name: "mc.replicate", Start: 0, End: 60},
		{ID: 7, Parent: 5, Name: "mc.replicate", Start: 10, End: 100},
		{ID: 8, Parent: -1, Name: "journal.write", Start: 95, End: 120},
	}
	p := selfTimes(good)
	if err := checkProfile(p); err != nil {
		t.Fatal(err)
	}
	if p.Lanes != 300 || p.Unattributed != 20 || p.Self["core.run"] != 20 || p.Self["mc.workers"] != 50 {
		t.Errorf("profile %+v", p)
	}
	for _, bad := range [][]span{
		{{ID: 1, Name: "bench.run", Start: 0, End: 100}, {ID: 2, Parent: 1, Name: "a", Start: 50, End: 150}},
		{{ID: 1, Name: "bench.run", Start: 0, End: 100}, {ID: 2, Parent: 1, Name: "a", Start: 0, End: 60}, {ID: 3, Parent: 1, Name: "a", Start: 40, End: 100}},
		{{ID: 1, Name: "bench.run", Start: 0, End: 100}, {ID: 2, Parent: 9, Name: "a", Start: 0, End: 60}},
	} {
		if err := checkProfile(selfTimes(bad)); err == nil {
			t.Errorf("spans %+v passed the check", bad)
		}
	}
}

// TestEntryJob checks the job attribution of meta journal entries.
func TestEntryJob(t *testing.T) {
	for in, want := range map[string]string{
		`{"type":"submit","id":"j12","spec":{"rule":"3majority"}}` + "\n":        "j12",
		`{"type":"shutdown"}` + "\n":                                             "",
		`{"job":"3-majority","rep":0,"seed":1,"rounds":5,"success":true}` + "\n": "",
	} {
		if got := entryJob([]byte(in)); got != want {
			t.Errorf("entryJob(%s) = %q, want %q", in, got, want)
		}
	}
}
