package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plurality/internal/dynamics"
	"plurality/internal/obs"
)

// TestParseRule pins the -rule names the CLI accepts.
func TestParseRule(t *testing.T) {
	good := map[string]string{
		"3majority":      "3-majority",
		"3majority-utie": "3-majority(uniform-tie)",
		"median":         "median",
		"polling":        "polling",
		"2choices":       "2-choices",
		"hplurality:7":   "7-plurality",
	}
	for in, want := range good {
		r, err := dynamics.ParseRule(in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", in, err)
			continue
		}
		if r.Name() != want {
			t.Errorf("ParseRule(%q).Name() = %q, want %q", in, r.Name(), want)
		}
	}
	for _, bad := range []string{"", "nope", "hplurality:", "hplurality:0", "hplurality:x"} {
		if _, err := dynamics.ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) should fail", bad)
		}
	}
}

// TestParseBias pins the -bias forms: an integer, "auto", and nothing
// else.
func TestParseBias(t *testing.T) {
	for _, bias := range []string{"123", "auto"} {
		if err := run("3majority", "auto", "complete", "auto", "", 1000, 4, bias, 1, 10,
			"none", 1, false, "", -1); err != nil {
			t.Errorf("-bias %s: %v", bias, err)
		}
	}
	if err := run("3majority", "auto", "complete", "auto", "", 100, 2, "abc", 1, 10,
		"none", 1, false, "", -1); err == nil || !strings.Contains(err.Error(), "bad bias") {
		t.Errorf("-bias abc: %v, want bad bias", err)
	}
}

// TestBuildEngineGraphSpecs: -graph resolves through the topo registry,
// so every family is reachable from this CLI by name, bad specs error
// out, and every backend mode runs.
func TestBuildEngineGraphSpecs(t *testing.T) {
	graphRun := func(graph, mode, file string, n int64) error {
		return run("3majority", "graph", graph, mode, file, n, 3, "20", 5, 10,
			"none", 1, false, "", -1)
	}
	for _, spec := range []string{
		"complete", "cycle", "star", "torus", "hypercube",
		"regular:4", "gnp:0.3", "smallworld:4:0.1", "ba:3",
		"sbm:2:0.2:0.02", "barbell:4",
	} {
		n := int64(100)
		if spec == "hypercube" {
			n = 128
		}
		if err := graphRun(spec, "auto", "", n); err != nil {
			t.Errorf("-graph %s: %v", spec, err)
		}
	}
	for _, bad := range []string{"nope", "regular:x", "gnp:y", "torus:0"} {
		if err := graphRun(bad, "auto", "", 100); err == nil {
			t.Errorf("-graph %s should fail", bad)
		}
	}
	if err := graphRun("torus", "auto", "", 101); err == nil {
		t.Error("non-square torus accepted")
	}

	// Backend modes: implicit needs no file, mmap builds one and reuses it,
	// and mmap without a path is rejected up front.
	for _, mode := range []string{"implicit", "csr"} {
		if err := graphRun("torus", mode, "", 100); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
	path := filepath.Join(t.TempDir(), "t.csr")
	for i := 0; i < 2; i++ { // second pass exercises cache reuse
		if err := graphRun("torus", "mmap", path, 100); err != nil {
			t.Fatalf("mmap pass %d: %v", i, err)
		}
	}
	if err := graphRun("torus", "mmap", "", 100); err == nil {
		t.Error("mmap without -graph-file accepted")
	}
	if err := graphRun("torus", "nope", "", 100); err == nil {
		t.Error("unknown graph mode accepted")
	}
}

// TestRejectsIgnoredFlags: a flag the resolved engine cannot honour is an
// error, not a silent fallback to another engine.
func TestRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		name, rule, eng, graph, mode, file string
		want                               string
	}{
		{"graph flags on clique engine", "3majority", "auto", "regular:8", "mmap", "", "apply only to -engine graph"},
		{"graph on sampled engine", "3majority", "sampled", "torus", "auto", "", "apply only to -engine graph"},
		{"graph file on multinomial", "3majority", "multinomial", "complete", "auto", "g.csr", "apply only to -engine graph"},
		{"graph on undecided", "undecided", "auto", "torus", "auto", "", "apply only to -engine graph"},
		{"engine on undecided", "undecided", "graph", "torus", "auto", "", "carries its own engine"},
		{"engine on keep-own", "2choices-keepown", "sampled", "complete", "auto", "", "carries its own engine"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.rule, tc.eng, tc.graph, tc.mode, tc.file, 1000, 3, "auto", 1, 10,
				"none", 1, false, "", -1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestParseAdversary(t *testing.T) {
	for in, wantBudget := range map[string]int64{
		"strongest:5": 5, "spread:7": 7, "random:9": 9, "boost:3": 3,
	} {
		a, err := parseAdversary(in)
		if err != nil {
			t.Errorf("parseAdversary(%q): %v", in, err)
			continue
		}
		if a.Budget() != wantBudget {
			t.Errorf("parseAdversary(%q).Budget() = %d", in, a.Budget())
		}
	}
	if a, err := parseAdversary("none"); err != nil || a.Budget() != 0 {
		t.Error("none adversary broken")
	}
	for _, bad := range []string{"strongest", "strongest:-1", "strongest:x", "nope:5"} {
		if _, err := parseAdversary(bad); err == nil {
			t.Errorf("parseAdversary(%q) should fail", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Small end-to-end run through the CLI plumbing (no flags).
	err := run("3majority", "auto", "complete", "auto", "", 2000, 3, "auto", 1, 10000,
		"none", 2, false, "", -1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Undecided path.
	err = run("undecided", "auto", "complete", "auto", "", 2000, 3, "500", 1, 10000,
		"none", 2, false, "", -1)
	if err != nil {
		t.Fatalf("run undecided: %v", err)
	}
	// Keep-own path with adversary and M-plurality stop.
	err = run("2choices-keepown", "auto", "complete", "auto", "", 2000, 3, "auto", 1, 10000,
		"strongest:2", 2, true, "", 50)
	if err != nil {
		t.Fatalf("run keep-own: %v", err)
	}
	// Error paths.
	if err := run("nope", "auto", "complete", "auto", "", 100, 2, "auto", 1, 10, "none", 1, false, "", -1); err == nil {
		t.Error("bad rule accepted")
	}
	if err := run("3majority", "nope", "complete", "auto", "", 100, 2, "auto", 1, 10, "none", 1, false, "", -1); err == nil {
		t.Error("bad engine accepted")
	}
}

// TestRunRejectsBadInput: out-of-range sizes, biases and round budgets,
// and a rule × engine pair without a closed form, fail with an error from
// run instead of a panic in the configuration or engine builder, or a
// silent fallback to another budget.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rule, eng string
		n         int64
		k         int
		bias      string
		maxRounds int
	}{
		{"zero agents", "3majority", "auto", 0, 3, "auto", 10},
		{"negative agents", "3majority", "auto", -5, 3, "10", 10},
		{"zero colors", "3majority", "auto", 1000, 0, "auto", 10},
		{"negative colors", "3majority", "auto", 1000, -2, "10", 10},
		{"bias above n", "3majority", "auto", 1000, 4, "5000", 10},
		{"negative bias", "3majority", "auto", 1000, 4, "-1", 10},
		{"zero max-rounds", "3majority", "auto", 1000, 4, "auto", 0},
		{"negative max-rounds", "3majority", "auto", 1000, 4, "auto", -5},
		{"h-plurality on multinomial", "hplurality:5", "multinomial", 1000, 4, "auto", 10},
		{"h-plurality:3 on multinomial", "hplurality:3", "multinomial", 1000, 4, "auto", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.rule, tc.eng, "complete", "auto", "", tc.n, tc.k, tc.bias, 1, tc.maxRounds,
				"none", 1, false, "", -1)
			if err == nil {
				t.Fatalf("rule=%s engine=%s n=%d k=%d bias=%s max-rounds=%d accepted",
					tc.rule, tc.eng, tc.n, tc.k, tc.bias, tc.maxRounds)
			}
		})
	}
	// The edges of the valid range still run.
	for _, bias := range []string{"0", "1000"} {
		if err := run("3majority", "auto", "complete", "auto", "", 1000, 4, bias, 1, 10,
			"none", 1, false, "", -1); err != nil {
			t.Errorf("bias %s: %v", bias, err)
		}
	}
}

// TestRunTraceFile pins the -trace flag: the run writes a parseable
// JSONL trace whose round count matches the run and whose bytes the
// tolerant reader consumes without skips.
func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	err := run("3majority", "auto", "complete", "auto", "", 2000, 3, "auto", 1, 10000,
		"none", 2, false, path, -1)
	if err != nil {
		t.Fatalf("run with -trace: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	defer f.Close()
	traces, skipped, err := obs.ReadTraces(f)
	if err != nil || skipped != 0 {
		t.Fatalf("parsing trace: err=%v skipped=%d", err, skipped)
	}
	if len(traces) != 1 {
		t.Fatalf("got %d trace runs, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Header.Rule != "3majority" || tr.Header.N != 2000 || tr.Header.K != 3 || tr.Header.Seed != 1 {
		t.Fatalf("trace header %+v does not describe the run", tr.Header)
	}
	if tr.Summary == nil || tr.Summary.Rounds < 1 || len(tr.Rounds) != tr.Summary.Retained {
		t.Fatalf("trace summary inconsistent: %+v with %d round lines", tr.Summary, len(tr.Rounds))
	}
	last := tr.Rounds[len(tr.Rounds)-1]
	if last.CMax <= 0 || last.CMax > 2000 {
		t.Fatalf("implausible final c_max %d", last.CMax)
	}
}
