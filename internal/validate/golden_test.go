package validate

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plurality/internal/mc"
	"plurality/internal/rng"
)

// Regenerate the committed traces after an *intentional* sampling change:
//
//	go test ./internal/validate/ -run TestGoldenTraces -update-golden
//
// and review the diff — every changed line is a changed sample.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/ from the current engines")

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

// TestGoldenTraces pins the engines' exact sampling sequences: any change
// to draw order, batching, shard layout or kernel selection shows up as a
// byte diff against the committed trace, even when the distribution is
// unchanged.
func TestGoldenTraces(t *testing.T) {
	for _, spec := range StandardGoldenSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			got := TraceBytes(spec)
			path := goldenPath(spec.Name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace diverged from %s — an engine's sampling changed.\n%s", path, traceDiff(want, got))
			}
		})
	}
}

// traceDiff renders the first few differing lines.
func traceDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "  line %d:\n    golden: %q\n    got:    %q\n", i+1, w, g)
			if shown++; shown >= 3 {
				b.WriteString("  ...\n")
				break
			}
		}
	}
	return b.String()
}

// TestGoldenSpecsUnique guards the spec list itself: duplicate names
// would silently overwrite each other's files.
func TestGoldenSpecsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range StandardGoldenSpecs() {
		if seen[spec.Name] {
			t.Errorf("duplicate golden spec name %q", spec.Name)
		}
		seen[spec.Name] = true
		if spec.Rounds < 1 || spec.Initial.N() == 0 {
			t.Errorf("degenerate golden spec %q", spec.Name)
		}
	}
}

// TestNoOrphanGoldens requires every file under testdata/golden/ to be
// named by a golden spec: a retired golden's file must go with its case,
// not linger on disk pinning nothing.
func TestNoOrphanGoldens(t *testing.T) {
	named := map[string]bool{}
	for _, spec := range StandardGoldenSpecs() {
		named[goldenPath(spec.Name)] = true
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if path := filepath.Join("testdata", "golden", e.Name()); !named[path] {
			t.Errorf("%s is named by no golden spec; delete it with its retired case", path)
		}
	}
}

// TestGoldenBytesIndependentOfPoolWorkers renders the full golden suite
// through Monte-Carlo pools of different widths and requires bit-for-bit
// identical output: the traces are a pure function of their specs, never
// of scheduling. (Engine-internal worker counts are fixed by each spec;
// this exercises the replicate-level parallelism the CLI and CI use.)
func TestGoldenBytesIndependentOfPoolWorkers(t *testing.T) {
	specs := StandardGoldenSpecs()
	render := func(workers int) []byte {
		pool := mc.NewPool(workers)
		defer pool.Close()
		out, err := mc.Map(ctx, pool, len(specs), 99, func(i int, _ *rng.Rand) []byte {
			return TraceBytes(specs[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(out, nil)
	}
	one := render(1)
	three := render(3)
	if !bytes.Equal(one, three) {
		t.Fatal("golden bytes differ between -workers 1 and 3")
	}
}
