package engine

import (
	"slices"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// TestGraphBatchMatchesSerialBytes pins the tentpole's safety claim: for a
// rand-free rule, the batched two-pass loops
// consume the rng exactly like the legacy per-vertex loops, so the same
// (structure, seed, workers) triple yields byte-identical runs whichever
// plan executes. The serial engine is forced in-package by clearing
// loop.batch before the first Step; a golden can only pin the batched
// bytes, this test proves they equal the pre-rewrite serial bytes on
// every structural class.
func TestGraphBatchMatchesSerialBytes(t *testing.T) {
	const n = 900
	gnp, err := topo.BuildSource("gnp:0.008", n, rng.New(41), topo.BuildOpts{}) // skewed degrees, isolated vertices likely
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topo.BuildSource("torus:3", 512, nil, topo.BuildOpts{Mode: topo.ModeImplicit})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		src  topo.NeighborSource
		n    int64
		rule dynamics.Rule
	}{
		// Uniform-degree flat: FillUniform + bucketed resolve vs serial.
		{"regular6-3majority", topo.RandomRegular("regular:6", n, 6, rng.New(31)), n, dynamics.ThreeMajority{}},
		// Skewed-degree flat: fillFlatExact (hoisted Lemire) vs serial.
		{"gnp-3majority", gnp, n, dynamics.ThreeMajority{}},
		// Non-fast3 batched apply (Median is rand-free, h=3, no fused kernel).
		{"regular6-median", topo.RandomRegular("regular:6", n, 6, rng.New(31)), n, dynamics.Median{}},
		// Generic source (no FlatRows): runGenericBatch over SampleNeighbor.
		{"opaque-regular6-3majority", opaqueSource{topo.RandomRegular("regular:6", n, 6, rng.New(31))}, n, dynamics.ThreeMajority{}},
		// Implicit functional source.
		{"torus-implicit-3majority", torus, 512, dynamics.ThreeMajority{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			init := colorcfg.Biased(tc.n, 4, tc.n/8)
			for _, workers := range []int{1, 3} {
				batched := NewGraphEngine(tc.rule, tc.src, init, workers, 77, rng.New(5))
				serial := NewGraphEngine(tc.rule, tc.src, init, workers, 77, rng.New(5))
				if !batched.loop.batch {
					t.Fatalf("workers=%d: rand-free rule did not select the batched plan", workers)
				}
				serial.loop.batch = false // force the legacy per-vertex loops
				for round := 0; round < 12; round++ {
					batched.Step(nil)
					serial.Step(nil)
					if !batched.Config().Equal(serial.Config()) {
						t.Fatalf("workers=%d round %d: configs diverged: %v vs %v",
							workers, round, batched.Config(), serial.Config())
					}
					if !slices.Equal(batched.AppendColors(nil), serial.AppendColors(nil)) {
						t.Fatalf("workers=%d round %d: per-vertex colors diverged", workers, round)
					}
				}
				batched.Close()
				serial.Close()
			}
		})
	}
}

// TestGraphColorsSnapshot pins the AppendColors contract: the result is a
// caller-owned snapshot, widened to Color, that keeps describing the round
// it was taken at; it tallies to that round's Config, and it appends to
// dst rather than overwriting it.
func TestGraphColorsSnapshot(t *testing.T) {
	const n, k = 2000, 4
	csr := topo.RandomRegular("regular:6", n, 6, rng.New(31))
	e := NewGraphEngine(dynamics.ThreeMajority{}, csr, colorcfg.Biased(n, k, 300), 2, 77, rng.New(5))
	defer e.Close()
	e.Step(nil)

	cfgBefore := e.Config()
	snap := e.AppendColors(nil)
	if got := colorcfg.FromAgents(snap, k); !got.Equal(cfgBefore) {
		t.Fatalf("snapshot tallies to %v, want %v", got, cfgBefore)
	}
	e.Step(nil)
	e.Step(nil) // both buffers have now been overwritten since the snapshot
	if got := colorcfg.FromAgents(snap, k); !got.Equal(cfgBefore) {
		t.Errorf("snapshot drifted after Step: tallies to %v, want %v", got, cfgBefore)
	}
	now := e.AppendColors(nil)
	if got := colorcfg.FromAgents(now, k); !got.Equal(e.Config()) {
		t.Errorf("fresh snapshot out of sync with Config: %v vs %v", got, e.Config())
	}
	both := e.AppendColors(snap)
	if len(both) != 2*n || !slices.Equal(both[:n], snap[:n]) || !slices.Equal(both[n:], now) {
		t.Error("AppendColors does not append to dst")
	}
}
