package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/obs"
	"plurality/internal/rng"
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

func TestParseBias(t *testing.T) {
	if v, err := parseBias("123", 1000, 4); err != nil || v != 123 {
		t.Errorf("explicit bias: %v %v", v, err)
	}
	if v, err := parseBias("auto", 100000, 4); err != nil || v <= 0 {
		t.Errorf("auto bias: %v %v", v, err)
	}
	if _, err := parseBias("abc", 100, 2); err == nil {
		t.Error("bad bias accepted")
	}
}

func TestBuildEngineGraphSpecs(t *testing.T) {
	// -graph resolves through the topo registry: every family is
	// reachable from this CLI by name, and bad specs error out.
	r := rng.New(1)
	init := colorcfg.Biased(100, 3, 20)
	for _, spec := range []string{
		"complete", "cycle", "star", "torus", "hypercube",
		"regular:4", "gnp:0.3", "smallworld:4:0.1", "ba:3",
		"sbm:2:0.2:0.02", "barbell:4",
	} {
		n := int64(100)
		if spec == "hypercube" {
			n = 128
		}
		e, err := buildEngine("graph", spec, "auto", "", dynamics.ThreeMajority{},
			colorcfg.Biased(n, 3, 20), 1, 5, r)
		if err != nil {
			t.Errorf("buildEngine(graph, %q): %v", spec, err)
			continue
		}
		if e.N() != n {
			t.Errorf("%q: engine n = %d, want %d", spec, e.N(), n)
		}
		e.Close()
	}
	for _, bad := range []string{"nope", "regular:x", "gnp:y", "torus:0"} {
		if _, err := buildEngine("graph", bad, "auto", "", dynamics.ThreeMajority{}, init, 1, 5, r); err == nil {
			t.Errorf("buildEngine(graph, %q) should fail", bad)
		}
	}
	if _, err := buildEngine("graph", "torus", "auto", "", dynamics.ThreeMajority{},
		colorcfg.Biased(101, 3, 20), 1, 5, r); err == nil {
		t.Error("non-square torus accepted")
	}

	// Backend modes: implicit needs no file, mmap builds one and reuses it,
	// and mmap without a path is rejected up front.
	for _, mode := range []string{"implicit", "csr"} {
		e, err := buildEngine("graph", "torus", mode, "", dynamics.ThreeMajority{}, init, 1, 5, r)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		e.Close()
	}
	path := filepath.Join(t.TempDir(), "t.csr")
	for i := 0; i < 2; i++ { // second pass exercises cache reuse
		e, err := buildEngine("graph", "torus", "mmap", path, dynamics.ThreeMajority{}, init, 1, 5, r)
		if err != nil {
			t.Fatalf("mmap pass %d: %v", i, err)
		}
		e.Close()
	}
	if _, err := buildEngine("graph", "torus", "mmap", "", dynamics.ThreeMajority{}, init, 1, 5, r); err == nil {
		t.Error("mmap without -graph-file accepted")
	}
	if _, err := buildEngine("graph", "torus", "nope", "", dynamics.ThreeMajority{}, init, 1, 5, r); err == nil {
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

// TestRunRejectsBadInput: out-of-range sizes and biases fail with an
// error from run instead of a panic in the configuration builder.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int64
		k    int
		bias string
	}{
		{"zero agents", 0, 3, "auto"},
		{"negative agents", -5, 3, "10"},
		{"zero colors", 1000, 0, "auto"},
		{"negative colors", 1000, -2, "10"},
		{"bias above n", 1000, 4, "5000"},
		{"negative bias", 1000, 4, "-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run("3majority", "auto", "complete", "auto", "", tc.n, tc.k, tc.bias, 1, 10,
				"none", 1, false, "", -1)
			if err == nil {
				t.Fatalf("n=%d k=%d bias=%s accepted", tc.n, tc.k, tc.bias)
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
