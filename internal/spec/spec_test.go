package spec

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

func TestParseBias(t *testing.T) {
	if v, err := ParseBias("123", 1000, 4); err != nil || v != 123 {
		t.Errorf("explicit bias: %v %v", v, err)
	}
	if v, err := ParseBias("auto", 100000, 4); err != nil || v != core.Corollary1Bias(100000, 4, 1) || v <= 0 {
		t.Errorf("auto bias: %v %v", v, err)
	}
	// Auto stays a valid start on tiny populations.
	for n := int64(1); n <= 64; n++ {
		if v, err := ParseBias("auto", n, 2); err != nil || v < 0 || v > n {
			t.Errorf("auto bias at n=%d: %v %v, want within [0, n]", n, v, err)
		}
	}
	for _, edge := range []string{"0", "1000"} {
		if _, err := ParseBias(edge, 1000, 4); err != nil {
			t.Errorf("bias %s: %v", edge, err)
		}
	}
	for bad, want := range map[string]string{"abc": "bad bias", "": "bad bias", "-1": "outside", "1001": "outside"} {
		if _, err := ParseBias(bad, 1000, 4); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseBias(%q) = %v, want an error containing %q", bad, err, want)
		}
	}
}

// TestResolve pins the rule × engine table every surface shares.
func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		rule, engine, graph string
		n                   int64
		want                string // resolved engine, or an error substring
		wantErr             bool
	}{
		{"3majority", "auto", "complete", 100, "multinomial", false},
		{"median", "auto", "torus", 100, "multinomial", false}, // Graph is ignored off the graph engine
		{"hplurality:3", "auto", "complete", 100, "sampled", false},
		{"polling", "sampled", "complete", 100, "sampled", false},
		{"2choices", "population", "complete", 100, "population", false},
		{"3majority", "graph", "regular:4", 100, "graph", false},
		{"undecided", "auto", "complete", 100, "undecided", false},
		{"2choices-keepown", "auto", "complete", 100, "2choices-keepown", false},
		{"undecided", "graph", "torus", 100, "carries its own engine", true},
		{"2choices-keepown", "sampled", "complete", 100, "carries its own engine", true},
		{"hplurality:5", "multinomial", "complete", 100, "closed-form", true},
		{"3majority", "warp", "complete", 100, "unknown engine", true},
		{"gossip", "auto", "complete", 100, "unknown rule", true},
		{"3majority", "graph", "moebius", 100, "unknown graph", true},
		{"3majority", "graph", "torus", 101, "side", true},
	} {
		rs, err := Spec{Rule: tc.rule, Engine: tc.engine, Graph: tc.graph, N: tc.n, K: 3}.Resolve()
		switch {
		case tc.wantErr && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s/%s/%s: err = %v, want one containing %q", tc.rule, tc.engine, tc.graph, err, tc.want)
		case !tc.wantErr && err != nil:
			t.Errorf("%s/%s/%s: %v", tc.rule, tc.engine, tc.graph, err)
		case !tc.wantErr && rs.Engine != tc.want:
			t.Errorf("%s/%s/%s resolved to %q, want %q", tc.rule, tc.engine, tc.graph, rs.Engine, tc.want)
		}
	}
}

// TestNewEngineEveryEngine builds every engine the table resolves to
// from the biased start.
func TestNewEngineEveryEngine(t *testing.T) {
	for _, s := range []Spec{
		{Rule: "3majority", Engine: "multinomial"},
		{Rule: "hplurality:3", Engine: "sampled"},
		{Rule: "median", Engine: "population"},
		{Rule: "3majority", Engine: "graph", Graph: "regular:4"},
		{Rule: "undecided", Engine: "auto"},
		{Rule: "2choices-keepown", Engine: "auto"},
	} {
		s.N, s.K, s.Bias = 100, 3, 20
		rs, err := s.Resolve()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		r := rng.New(1)
		var g topo.NeighborSource
		if rs.Engine == "graph" {
			if g, err = rs.BuildSource(r, topo.BuildOpts{}); err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
		}
		e := rs.NewEngine(g, 2, 5, r)
		if e.N() != s.N {
			t.Errorf("%s: engine n = %d, want %d", rs.Engine, e.N(), s.N)
		}
		if c := e.Config(); c.Bias() != s.Bias {
			t.Errorf("%s: start bias %d, want %d", rs.Engine, c.Bias(), s.Bias)
		}
		e.Close()
	}
}

// TestJobSharesOneGraph: the graph builder runs once per job however
// many replicates there are, the records are a pure function of the job
// seed (not of pool parallelism), and an attached observer leaves them
// unchanged.
func TestJobSharesOneGraph(t *testing.T) {
	rs, err := Spec{Rule: "3majority", Engine: "graph", Graph: "gnp:0.1", N: 200, K: 3, Bias: 40}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int32
	graph := func() (topo.NeighborSource, error) {
		builds.Add(1)
		return rs.BuildSource(rng.New(9), topo.BuildOpts{})
	}
	runJob := func(workers int, obsFor func(uint64) obs.Observer) []mc.Record {
		pool := mc.NewPool(workers)
		defer pool.Close()
		recs, err := pool.Run(context.Background(), rs.Job("j", 3, 6, 10_000, graph, obsFor), mc.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	want := runJob(1, nil)
	if n := builds.Load(); n != 1 {
		t.Fatalf("graph built %d times for one job, want 1", n)
	}
	var observed atomic.Int32
	counting := func(uint64) obs.Observer {
		return obs.ObserverFunc(func(int, int64, int64, colorcfg.Config) { observed.Add(1) })
	}
	if got := runJob(3, counting); !reflect.DeepEqual(got, want) {
		t.Fatalf("records depend on workers or observer:\n%+v\n%+v", got, want)
	}
	if observed.Load() == 0 {
		t.Fatal("observer never called")
	}
	for _, rec := range want {
		if rec.Job != "j" || rec.Rounds < 1 {
			t.Fatalf("implausible record %+v", rec)
		}
	}
}
