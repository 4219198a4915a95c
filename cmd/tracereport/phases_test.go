package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/obs"
	"plurality/internal/rng"
)

// observedRun runs 3-majority on the clique to consensus from a bias of
// s and returns the recorder that observed it.
func observedRun(t *testing.T, n int64, k int, s int64, seed uint64) *obs.Recorder {
	t.Helper()
	rec := &obs.Recorder{MemEvery: -1}
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(n, k, s))
	res := core.Run(e, core.Options{
		MaxRounds: 10000,
		Rand:      rng.New(seed),
		Stop:      core.WhenConsensusOf(n),
		Observer:  rec,
	})
	if !res.WonInitialPlurality {
		t.Fatal("run did not converge to the initial plurality")
	}
	return rec
}

func TestPhaseOf(t *testing.T) {
	cases := []struct {
		n    int64
		r    obs.RoundStats
		want phase
	}{
		{10000, obs.RoundStats{CMax: 3000, MinorityMass: 7000}, phaseGrowth},
		{10000, obs.RoundStats{CMax: 7000, MinorityMass: 3000}, phaseDecay},
		{10000, obs.RoundStats{CMax: 9950, MinorityMass: 50}, phaseExtinction},
		// The polylog cut is max(100, n/1000): 1000 agents at n = 10⁶.
		{1_000_000, obs.RoundStats{CMax: 999_000, MinorityMass: 1000}, phaseExtinction},
		{1_000_000, obs.RoundStats{CMax: 998_999, MinorityMass: 1001}, phaseDecay},
	}
	for _, c := range cases {
		if got := phaseOf(c.r, c.n); got != c.want {
			t.Errorf("phaseOf(%+v, n=%d) = %v, want %v", c.r, c.n, got, c.want)
		}
	}
}

func TestPhaseString(t *testing.T) {
	if phaseGrowth.String() != "growth" || phaseDecay.String() != "decay" ||
		phaseExtinction.String() != "extinction" {
		t.Error("phase names wrong")
	}
	if phase(42).String() == "" {
		t.Error("unknown phase renders empty")
	}
}

// TestRecorderCapturesTrajectory: a recorder attached to core.Run keeps
// every round, numbered 1..R without gaps, ending monochromatic.
func TestRecorderCapturesTrajectory(t *testing.T) {
	rec := observedRun(t, 100000, 8, 7000, 1)
	rounds := rec.Rounds(nil)
	if len(rounds) < 5 || len(rounds) != rec.Total() {
		t.Fatalf("kept %d of %d rounds", len(rounds), rec.Total())
	}
	if first := rounds[0]; first.Round != 1 || first.CMax == 0 {
		t.Fatalf("bad first round: %+v", first)
	}
	if last := rounds[len(rounds)-1]; last.CMax != 100000 || last.MinorityMass != 0 {
		t.Fatalf("final round not monochromatic: %+v", last)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Round != rounds[i-1].Round+1 {
			t.Fatalf("round gap at %d", i)
		}
	}
}

func TestEmptyRecorder(t *testing.T) {
	rec := &obs.Recorder{}
	if rec.Total() != 0 || len(rec.Rounds(nil)) != 0 {
		t.Fatalf("empty recorder holds %d rounds", rec.Total())
	}
	if segments(rec.Rounds(nil), 100) != nil {
		t.Error("empty recorder must have no segments")
	}
}

func TestSegmentsOrdered(t *testing.T) {
	rec := observedRun(t, 100000, 8, 7000, 2)
	segs := segments(rec.Rounds(nil), 100000)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	// Phases must appear in proof order: growth (maybe) then decay (maybe)
	// then extinction; no going back.
	last := phase(-1)
	for _, s := range segs {
		if s.phase < last {
			t.Fatalf("phase regression: %v after %v", s.phase, last)
		}
		last = s.phase
		if s.toRound < s.fromRound {
			t.Fatalf("empty segment %+v", s)
		}
	}
	if last != phaseExtinction {
		t.Errorf("run to consensus ends in %v, want extinction", last)
	}
	// The growth phase must actually grow the bias.
	if s := segs[0]; s.phase == phaseGrowth && s.toRound-s.fromRound > 1 && s.growthRate <= 1 {
		t.Errorf("growth segment rate %v <= 1", s.growthRate)
	}
	// Segment round ranges must tile the observed rounds, which start
	// at round 1 (the trace has no round 0).
	if segs[0].fromRound != 1 || segs[len(segs)-1].toRound != rec.Total() {
		t.Errorf("segments cover %d..%d, want 1..%d", segs[0].fromRound, segs[len(segs)-1].toRound, rec.Total())
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].fromRound != segs[i-1].toRound+1 {
			t.Errorf("segment gap between %d and %d", segs[i-1].toRound, segs[i].fromRound)
		}
	}
}

// TestReportPhases pins the phase lines of a run profile on the run
// `plurality -n 100000 -k 8 -bias auto -seed 1 -trace FILE` performs: the
// same engine, seed and stop rule, written through the same recorder.
func TestReportPhases(t *testing.T) {
	const n, k = 100000, 8
	rec := observedRun(t, n, k, core.Corollary1Bias(n, k, 1), 1)
	var trace bytes.Buffer
	if err := rec.WriteTrace(&trace, obs.Header{Engine: "clique-multinomial[3-majority]", N: n, K: k, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, []string{path}, 0); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "phase:") {
			got = append(got, strings.Join(strings.Fields(line)[:4], " "))
		}
	}
	want := []string{
		"phase: growth rounds 1..13",
		"phase: decay rounds 14..17",
		"phase: extinction rounds 18..19",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("phase lines:\n%s\nwant:\n%s\nreport:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"), out.String())
	}
}
