package engine

import (
	"fmt"
	"slices"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// colorWidth reports the byte width of the engine's color storage.
func colorWidth(e *GraphEngine) int {
	switch e.colors.(type) {
	case *graphBuffers[uint8]:
		return 1
	case *graphBuffers[uint16]:
		return 2
	case *graphBuffers[int32]:
		return 4
	}
	panic(fmt.Sprintf("unknown color store %T", e.colors))
}

// TestGraphColorWidthFromK pins how NewGraphEngine picks the storage
// width: the narrowest word that holds k−1.
func TestGraphColorWidthFromK(t *testing.T) {
	for _, tc := range []struct{ k, width int }{
		{2, 1}, {256, 1}, {257, 2}, {65536, 2}, {65537, 4},
	} {
		e := NewGraphEngine(dynamics.ThreeMajority{}, topo.NewCycle(100),
			colorcfg.Biased(100, tc.k, 10), 1, 1, nil)
		if got := colorWidth(e); got != tc.width {
			t.Errorf("k=%d: %d-byte colors, want %d", tc.k, got, tc.width)
		}
	}
}

// padK returns c with k−len(c) extra colors at count zero.
func padK(c colorcfg.Config, k int) colorcfg.Config {
	out := colorcfg.New(k)
	copy(out, c)
	return out
}

// TestGraphColorWidthsAgree pins that the color width is invisible: the
// same graph, seeds and layout give identical per-round configs and
// AppendColors bytes at every width, on all five dispatch rows. The
// non-clique rows run through NewGraphEngine at k=8 (uint8), k=257
// (uint16) and k=65537 (int32), the extra colors at count zero; neither
// their rng stream nor their rule depends on k. The clique alias draws a
// column out of k, so its stream does depend on k; that row is compared
// at k=8 with the width forced through newGraphEngine, as the other rows
// also are.
func TestGraphColorWidthsAgree(t *testing.T) {
	const n, k = 1000, 8 // 10³ for torus:3
	gnp, err := topo.BuildSource("gnp:0.006", n, rng.New(41), topo.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topo.BuildSource("torus:3", n, nil, topo.BuildOpts{Mode: topo.ModeImplicit})
	if err != nil {
		t.Fatal(err)
	}
	regular := topo.RandomRegular("regular:8", n, 8, rng.New(31))
	utie := dynamics.ThreeMajority{UniformTie: true}
	cases := []struct {
		name    string
		src     topo.NeighborSource
		rule    dynamics.Rule
		kDrives bool // the rng stream depends on k (clique alias)
	}{
		{"clique-self", topo.NewComplete(n), dynamics.ThreeMajority{}, true},
		{"regular8-csr", regular, dynamics.ThreeMajority{}, false},
		{"gnp", gnp, dynamics.ThreeMajority{}, false},
		{"torus-implicit", torus, dynamics.ThreeMajority{}, false},
		{"regular8-csr-utie-serial", regular, utie, false},
		{"torus-implicit-utie-serial", torus, utie, false},
	}
	init := colorcfg.Biased(n, k, n/8)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(newEngine func(dynamics.Rule, topo.NeighborSource, colorcfg.Config, int, uint64, *rng.Rand) *GraphEngine, c colorcfg.Config) *GraphEngine {
				return newEngine(tc.rule, tc.src, c, 3, 77, rng.New(5))
			}
			engines := []*GraphEngine{
				build(newGraphEngine[uint8], init),
				build(newGraphEngine[uint16], init),
				build(newGraphEngine[int32], init),
			}
			if !tc.kDrives {
				engines = append(engines,
					build(NewGraphEngine, padK(init, 257)),
					build(NewGraphEngine, padK(init, 65537)))
			}
			for _, e := range engines {
				defer e.Close()
			}
			ref := engines[0]
			for round := 1; round <= 10; round++ {
				for _, e := range engines {
					e.Step(nil)
				}
				refCfg, refColors := ref.Config(), ref.AppendColors(nil)
				for _, e := range engines[1:] {
					cfg := e.Config()
					if !slices.Equal(cfg[:k], refCfg) || slices.ContainsFunc(cfg[k:], func(c int64) bool { return c != 0 }) {
						t.Fatalf("round %d, k=%d %d-byte colors: config %v, want %v",
							round, e.K(), colorWidth(e), cfg[:k], refCfg)
					}
					if !slices.Equal(e.AppendColors(nil), refColors) {
						t.Fatalf("round %d, k=%d %d-byte colors: per-vertex colors diverged",
							round, e.K(), colorWidth(e))
					}
				}
			}
		})
	}
}
