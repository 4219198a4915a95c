package topo

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"plurality/internal/rng"
)

// checkCSR verifies the structural invariants every CSR in this package
// must satisfy: well-formed offsets, sorted rows, in-range neighbors, no
// self-loops, symmetry (u in v's row iff v in u's row, with multiplicity),
// and — because every generator produces simple graphs — no duplicate row
// entries. Returns the degree sum for handshake checks.
func checkCSR(t *testing.T, g *CSR) int64 {
	t.Helper()
	n := g.N()
	if g.Offsets[0] != 0 || g.Offsets[n] != int64(len(g.Neighbors)) {
		t.Fatalf("offsets endpoints: [%d, %d], want [0, %d]", g.Offsets[0], g.Offsets[n], len(g.Neighbors))
	}
	var degreeSum int64
	for v := int64(0); v < n; v++ {
		row := g.Neighbors[g.Offsets[v]:g.Offsets[v+1]]
		degreeSum += int64(len(row))
		if !slices.IsSorted(row) {
			t.Fatalf("row %d not sorted", v)
		}
		for i, u32 := range row {
			u := int64(u32)
			if u < 0 || u >= n {
				t.Fatalf("vertex %d: neighbor %d out of range", v, u)
			}
			if u == v {
				t.Fatalf("vertex %d has a self-loop", v)
			}
			if i > 0 && row[i-1] == u32 {
				t.Fatalf("vertex %d has duplicate neighbor %d", v, u)
			}
			// Symmetry: v must appear in u's row.
			urow := g.Neighbors[g.Offsets[u]:g.Offsets[u+1]]
			if _, found := slices.BinarySearch(urow, int32(v)); !found {
				t.Fatalf("edge {%d,%d} missing its mirror", v, u)
			}
		}
	}
	if degreeSum%2 != 0 {
		t.Fatalf("handshake violated: degree sum %d is odd", degreeSum)
	}
	if degreeSum != 2*g.Edges() {
		t.Fatalf("degree sum %d != 2·edges %d", degreeSum, 2*g.Edges())
	}
	return degreeSum
}

// connected reports whether the graph is connected (BFS from 0).
func connected(g NeighborSource) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := []int64{0}
	seen[0] = true
	visited := int64(1)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for i := int64(0); i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			if !seen[u] {
				seen[u] = true
				visited++
				queue = append(queue, u)
			}
		}
	}
	return visited == n
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("triangle+leaf", 4)
	b.AddEdge(2, 1) // any insertion order
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(3, 0)
	g := b.Finalize()
	checkCSR(t, g)
	wantDeg := []int64{3, 2, 2, 1}
	for v, want := range wantDeg {
		if got := g.Degree(int64(v)); got != want {
			t.Errorf("degree(%d) = %d, want %d", v, got, want)
		}
	}
	if got := g.Neighbors[g.Offsets[0]:g.Offsets[1]]; !slices.Equal(got, []int32{1, 2, 3}) {
		t.Errorf("row 0 = %v, want [1 2 3]", got)
	}
	if g.Edges() != 4 {
		t.Errorf("edges = %d, want 4", g.Edges())
	}
}

func TestBuilderCanonicalAcrossInsertionOrder(t *testing.T) {
	edges := [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	b1 := NewBuilder("g", 4)
	for _, e := range edges {
		b1.AddEdge(e[0], e[1])
	}
	b2 := NewBuilder("g", 4)
	for i := len(edges) - 1; i >= 0; i-- {
		b2.AddEdge(edges[i][1], edges[i][0]) // reversed order and endpoints
	}
	g1, g2 := b1.Finalize(), b2.Finalize()
	if !slices.Equal(g1.Offsets, g2.Offsets) || !slices.Equal(g1.Neighbors, g2.Neighbors) {
		t.Fatal("CSR bytes depend on edge insertion order")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	NewBuilder("bad", 3).AddEdge(1, 1)
}

func TestCSRSampleNeighborUniform(t *testing.T) {
	b := NewBuilder("path", 5) // 0-1-2-3-4
	for v := int64(0); v < 4; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Finalize()
	r := rng.New(7)
	counts := map[int64]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[g.SampleNeighbor(2, r)]++
	}
	if len(counts) != 2 {
		t.Fatalf("vertex 2 sampled %v, want exactly {1, 3}", counts)
	}
	for _, u := range []int64{1, 3} {
		if c := counts[u]; c < draws/2-600 || c > draws/2+600 {
			t.Errorf("neighbor %d sampled %d times, want ~%d", u, c, draws/2)
		}
	}
}

func TestCSRIsolatedVertexSamplesSelf(t *testing.T) {
	b := NewBuilder("lonely", 3)
	b.AddEdge(0, 1) // vertex 2 isolated
	g := b.Finalize()
	if got := g.SampleNeighbor(2, rng.New(1)); got != 2 {
		t.Fatalf("isolated vertex sampled %d, want itself", got)
	}
}

func TestCSRSerializationRoundTrip(t *testing.T) {
	for _, g := range []*CSR{
		RandomRegular("regular:4", 50, 4, rng.New(3)),
		Gnp("gnp:0.1", 40, 0.1, rng.New(4)),
		NewBuilder("empty", 7).Finalize(),
	} {
		var buf bytes.Buffer
		wrote, err := g.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: WriteTo: %v", g.GraphName, err)
		}
		if wrote != int64(buf.Len()) {
			t.Fatalf("%s: WriteTo reported %d bytes, wrote %d", g.GraphName, wrote, buf.Len())
		}
		got, err := ReadCSR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadCSR: %v", g.GraphName, err)
		}
		if got.GraphName != g.GraphName ||
			!slices.Equal(got.Offsets, g.Offsets) || !slices.Equal(got.Neighbors, g.Neighbors) {
			t.Fatalf("%s: round trip changed the graph", g.GraphName)
		}
		// Serialized bytes are canonical: re-serializing reproduces them.
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: serialization not canonical", g.GraphName)
		}
	}
}

func TestReadCSRRejectsCorruption(t *testing.T) {
	g := RandomRegular("regular:4", 20, 4, rng.New(5))
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("WRONGMAG"), full[8:]...),
		"truncated":   full[:len(full)-9],
		"extra short": full[:12],
	}
	// Out-of-range neighbor: flip a neighbor to a huge value (last 8
	// bytes encode the final neighbor).
	corrupt := slices.Clone(full)
	corrupt[len(corrupt)-1] = 0x7f
	cases["neighbor out of range"] = corrupt
	// n = 20 spelled as a two-byte varint (0x94 0x00): WriteTo never
	// writes it, so accepting it would break the byte round trip.
	hdr := len(csrMagic) + 1 + len(g.GraphName)
	cases["non-minimal varint"] = slices.Concat(full[:hdr], []byte{0x94, 0x00}, full[hdr+1:])
	for name, data := range cases {
		if _, err := ReadCSR(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadCSR accepted corrupted input", name)
		}
	}
}

// csrHeader returns a topoCSR1 header with an empty name claiming n
// vertices and nnz adjacency entries, and no array data.
func csrHeader(n, nnz uint64) []byte {
	h := []byte(csrMagic)
	h = binary.AppendUvarint(h, 0)
	h = binary.AppendUvarint(h, n)
	return binary.AppendUvarint(h, nnz)
}

// TestReadCSRRejectsHostileHeader feeds ReadCSR short streams whose
// headers claim huge arrays. Each must fail with an error having allocated
// little: allocating from the header would take a terabyte for nnz = 2^40
// and 16 GiB of offsets for n = 2^31-1, an unrecoverable out-of-memory
// crash.
func TestReadCSRRejectsHostileHeader(t *testing.T) {
	for name, data := range map[string][]byte{
		"nnz=2^40":          csrHeader(4, 1<<40),
		"nnz=cap+1":         csrHeader(4, uint64(MaxAdjEntries)+1),
		"n=2^31-1":          csrHeader(1<<31-1, 0),
		"n=2^31-1, nnz=cap": csrHeader(1<<31-1, uint64(MaxAdjEntries)),
		// Valid offsets for one vertex of degree MaxAdjEntries, then no
		// neighbor data.
		"n=1, nnz=cap, short": binary.LittleEndian.AppendUint64(csrHeader(1, uint64(MaxAdjEntries)), uint64(MaxAdjEntries)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadCSR(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: ReadCSR accepted a %d-byte stream", name, len(data))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: ReadCSR allocated %d bytes for a %d-byte stream", name, got, len(data))
		}
	}
}

// FuzzReadCSR: no input may panic ReadCSR, and an accepted input is
// canonical — WriteTo of the result reproduces, byte for byte, the prefix
// of the input that ReadCSR consumed.
func FuzzReadCSR(f *testing.F) {
	for _, g := range []*CSR{
		RandomRegular("regular:4", 20, 4, rng.New(5)),
		Barbell("barbell:3", 16, 3, rng.New(6)),
		NewBuilder("empty", 3).Finalize(),
	} {
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add(csrHeader(4, 1<<40))
	f.Add(csrHeader(1<<31-1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		g, err := ReadCSR(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("WriteTo gave %d bytes, differing from the %d bytes ReadCSR accepted", buf.Len(), len(consumed))
		}
	})
}

// sortedCSR materializes src and sorts each row, so checkCSR and edge-set
// comparisons can run on implicit families (MaterializeCSR itself keeps
// enumeration order).
func sortedCSR(t *testing.T, src NeighborSource) *CSR {
	t.Helper()
	g, err := MaterializeCSR(src.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	sortRows(g)
	return g
}

func TestMaterializeCSRMatchesEdgeList(t *testing.T) {
	// CSR↔edge-list round trip: materializing the implicit torus and
	// re-deriving neighbor sets must agree with the implicit structure.
	impl := NewTorus(4, 5)
	g := sortedCSR(t, impl)
	checkCSR(t, g)
	if g.N() != impl.N() {
		t.Fatalf("n = %d, want %d", g.N(), impl.N())
	}
	for v := int64(0); v < impl.N(); v++ {
		want := make([]int32, 0, 4)
		for i := int64(0); i < impl.Degree(v); i++ {
			want = append(want, int32(impl.Neighbor(v, i)))
		}
		slices.Sort(want)
		got := g.Neighbors[g.Offsets[v]:g.Offsets[v+1]]
		if !slices.Equal(got, want) {
			t.Fatalf("vertex %d: row %v, want %v", v, got, want)
		}
	}
}
