package topo

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"plurality/internal/rng"
)

// writeFile serializes g to a fresh file under dir and returns the path.
func writeFile(t *testing.T, dir string, g *CSR) string {
	t.Helper()
	path := filepath.Join(dir, g.GraphName+".csr")
	if err := WriteCSRFile(g, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenCSRRoundTrip maps serialized graphs back and requires exact
// structural agreement with the in-RAM original.
func TestOpenCSRRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, g := range []*CSR{
		RandomRegular("regular4", 50, 4, rng.New(3)),
		Gnp("gnp", 40, 0.1, rng.New(4)),
		SmallWorld("smallworld", 60, 4, 0.2, rng.New(5)),
	} {
		m, err := OpenCSR(writeFile(t, dir, g))
		if err != nil {
			t.Fatalf("%s: OpenCSR: %v", g.GraphName, err)
		}
		if m.Name() != g.GraphName || m.N() != g.N() || m.Edges() != g.Edges() {
			t.Fatalf("%s: header mismatch", g.GraphName)
		}
		sourcesAgree(t, g.GraphName, g, m)
		if !slices.Equal(sampleStream(g, 17, 2), sampleStream(m, 17, 2)) {
			t.Fatalf("%s: mapped sample stream diverged from in-RAM", g.GraphName)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%s: Close: %v", g.GraphName, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", g.GraphName, err)
		}
	}
}

// TestOpenCSREdgeShapes covers the serialization edge cases that feed the
// mmap backend: zero-degree rows (isolated vertices), the n=1 graph, and
// an empty-but-valid graph.
func TestOpenCSREdgeShapes(t *testing.T) {
	dir := t.TempDir()

	// Isolated vertices: a 6-vertex graph where only 1-2 and 4-5 have
	// edges; vertices 0 and 3 have degree zero and must self-sample
	// without consuming the rng.
	b := NewBuilder("islands", 6)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5)
	m, err := OpenCSR(writeFile(t, dir, b.Finalize()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, v := range []int64{0, 3} {
		if d := m.Degree(v); d != 0 {
			t.Fatalf("vertex %d degree %d, want 0", v, d)
		}
		r := rng.New(1)
		before := r.Uint64()
		r = rng.New(1)
		if got := m.SampleNeighbor(v, r); got != v {
			t.Fatalf("isolated vertex %d sampled %d, want itself", v, got)
		}
		if r.Uint64() != before {
			t.Fatal("isolated-vertex sample consumed randomness")
		}
	}
	if m.Degree(1) != 1 || m.Neighbor(1, 0) != 2 {
		t.Fatal("connected row wrong after round trip")
	}

	// n=1: the smallest legal graph, no neighbors at all.
	one, err := OpenCSR(writeFile(t, dir, &CSR{GraphName: "single", Offsets: []int64{0, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if one.N() != 1 || one.Degree(0) != 0 || one.SampleNeighbor(0, rng.New(2)) != 0 {
		t.Fatal("n=1 graph broken after round trip")
	}

	// Empty n-vertex graph via the builder.
	empty, err := OpenCSR(writeFile(t, dir, NewBuilder("empty", 7).Finalize()))
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if empty.N() != 7 || empty.Edges() != 0 {
		t.Fatal("empty graph broken after round trip")
	}
}

// TestOpenCSRBoundaryNeighborIDs pins 64-bit id handling: a neighbor id
// of exactly n-1 round-trips, while ids >= n — including values past
// int32 that would alias to small ints under a narrowing bug — are
// rejected.
func TestOpenCSRBoundaryNeighborIDs(t *testing.T) {
	dir := t.TempDir()
	const n = 1 << 20
	g := &CSR{
		GraphName: "bound",
		Offsets:   make([]int64, n+1),
		Neighbors: []int32{n - 1, 0},
	}
	// One edge between the extreme vertices 0 and n-1.
	for v := int64(1); v <= n; v++ {
		g.Offsets[v] = 1
	}
	g.Offsets[n] = 2
	m, err := OpenCSR(writeFile(t, dir, g))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Neighbor(0, 0); got != n-1 {
		t.Fatalf("Neighbor(0,0) = %d, want %d", got, int64(n-1))
	}
	if got := m.Neighbor(n-1, 0); got != 0 {
		t.Fatalf("Neighbor(n-1,0) = %d, want 0", got)
	}

	// A stored id >= n must be rejected at open, for both "just past n"
	// and "past int32" values (the latter catches 32-bit narrowing). The
	// in-RAM CSR cannot hold either, so the file's first neighbor word is
	// patched in place.
	good, err := os.ReadFile(writeFile(t, dir, g))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []uint64{n, 1 << 33} {
		evil := slices.Clone(good)
		binary.LittleEndian.PutUint64(evil[len(evil)-16:], bad)
		path := filepath.Join(dir, "evil.csr")
		if err := os.WriteFile(path, evil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCSR(bytes.NewReader(evil)); err == nil {
			t.Fatalf("ReadCSR accepted neighbor id %d with n=%d", bad, int64(n))
		}
		if m, err := OpenCSR(path); err == nil {
			m.Close()
			t.Fatalf("OpenCSR accepted neighbor id %d with n=%d", bad, int64(n))
		}
	}
}

// TestOpenCSRRejectsTruncation sweeps every prefix length of a valid file
// (the faultfs torn-write pattern applied to real files): an interrupted
// or torn write must never map successfully, whatever byte it stopped at.
func TestOpenCSRRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	g := RandomRegular("reg", 20, 4, rng.New(5))
	full, err := os.ReadFile(writeFile(t, dir, g))
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.csr")
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := OpenCSR(torn); err == nil {
			m.Close()
			t.Fatalf("OpenCSR accepted a file truncated to %d of %d bytes", cut, len(full))
		}
	}
	// Trailing junk is corruption too: the format has no trailer, so the
	// size must match the header exactly.
	if err := os.WriteFile(torn, append(slices.Clone(full), 0xAA), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := OpenCSR(torn); err == nil {
		m.Close()
		t.Fatal("OpenCSR accepted a file with trailing junk")
	}
}

// TestOpenCSRRejectsCorruption mirrors ReadCSR's corruption matrix on the
// mmap path: bad magic, nonmonotone offsets, out-of-range neighbors, and
// a missing file.
func TestOpenCSRRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	g := RandomRegular("reg", 20, 4, rng.New(5))
	path := writeFile(t, dir, g)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"bad magic": func(b []byte) []byte {
			c := slices.Clone(b)
			copy(c, "WRONGMAG")
			return c
		},
		"neighbor out of range": func(b []byte) []byte {
			c := slices.Clone(b)
			c[len(c)-1] = 0x7f // final neighbor becomes huge
			return c
		},
		"offsets decrease": func(b []byte) []byte {
			c := slices.Clone(b)
			// First stored offset (Offsets[1]) lives right after the
			// header; make it enormous so the monotonicity scan trips.
			hdr := len(b) - 8*(20+int(g.Offsets[20]))
			c[hdr+7] = 0x7f
			return c
		},
	}
	bad := filepath.Join(dir, "bad.csr")
	for name, mutate := range corruptions {
		if err := os.WriteFile(bad, mutate(full), 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := OpenCSR(bad); err == nil {
			m.Close()
			t.Errorf("%s: OpenCSR accepted corrupted file", name)
		}
	}
	if _, err := OpenCSR(filepath.Join(dir, "absent.csr")); err == nil {
		t.Error("OpenCSR accepted a missing file")
	}
}

// TestOpenCSRMaxVertexSparse opens a CSR at the format's vertex ceiling,
// n = MaxBuilderN-1 = 2³¹-1, whose single edge joins the two highest
// vertices — so the stored neighbor ids sit at the int32 boundary and a
// 32-bit narrowing anywhere in the mmap accessors would corrupt them.
// The 17 GB offsets region is written as a filesystem hole (all interior
// offsets are zero until the final vertex), so the file costs a few KB of
// disk; the env gate exists because validation still has to scan all 2³¹
// offsets, which takes seconds.
func TestOpenCSRMaxVertexSparse(t *testing.T) {
	if os.Getenv("PLURALITY_BIGMEM") != "1" {
		t.Skip("set PLURALITY_BIGMEM=1 to scan a 2^31-vertex sparse CSR")
	}
	const n = MaxBuilderN - 1
	const nnz = 2
	path := filepath.Join(t.TempDir(), "max.csr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header: magic, name, n, nnz — exactly WriteTo's layout.
	hdr := []byte("topoCSR1")
	name := "maxsparse"
	hdr = append(hdr, byte(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, uint64(n))
	hdr = binary.AppendUvarint(hdr, uint64(nnz))
	if _, err := f.Write(hdr); err != nil {
		t.Fatal(err)
	}
	h := int64(len(hdr))
	// Stored offsets are Offsets[1..n]; all zero except the last two
	// (vertex n-2 gets the first neighbor, n-1 the second). Everything
	// between the header and these trailing words is a hole.
	tail := make([]byte, 8*4)
	binary.LittleEndian.PutUint64(tail[0:], 1)            // Offsets[n-1]
	binary.LittleEndian.PutUint64(tail[8:], nnz)          // Offsets[n]
	binary.LittleEndian.PutUint64(tail[16:], uint64(n-1)) // neighbor of n-2
	binary.LittleEndian.PutUint64(tail[24:], uint64(n-2)) // neighbor of n-1
	if _, err := f.WriteAt(tail, h+8*(n-2)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := OpenCSR(path)
	if err != nil {
		t.Fatalf("OpenCSR at n=2^31-1: %v", err)
	}
	defer m.Close()
	if m.N() != n || m.Edges() != 1 {
		t.Fatalf("header: n=%d edges=%d", m.N(), m.Edges())
	}
	if m.Degree(0) != 0 || m.Degree(n/2) != 0 {
		t.Fatal("interior vertices should be isolated")
	}
	if m.Degree(n-2) != 1 || m.Neighbor(n-2, 0) != n-1 {
		t.Fatalf("Neighbor(n-2,0) = %d, want %d", m.Neighbor(n-2, 0), int64(n-1))
	}
	if m.Neighbor(n-1, 0) != n-2 {
		t.Fatalf("Neighbor(n-1,0) = %d, want %d", m.Neighbor(n-1, 0), int64(n-2))
	}
	if got := m.SampleNeighbor(n-1, rng.New(9)); got != n-2 {
		t.Fatalf("SampleNeighbor(n-1) = %d, want %d", got, int64(n-2))
	}
}

// TestWriteCSRFileAtomic checks the crash-safety contract: the temp file
// is renamed into place, so the target either holds the complete graph or
// (on failure) the previous content, never a partial write.
func TestWriteCSRFileAtomic(t *testing.T) {
	dir := t.TempDir()
	g := RandomRegular("reg", 30, 4, rng.New(6))
	path := filepath.Join(dir, "g.csr")
	if err := WriteCSRFile(g, path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different graph: the swap must be complete.
	g2 := RandomRegular("reg2", 30, 4, rng.New(7))
	if err := WriteCSRFile(g2, path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Name() != "reg2" {
		t.Fatalf("after overwrite, file holds %q", m.Name())
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic writes, want 1", len(entries))
	}
}
