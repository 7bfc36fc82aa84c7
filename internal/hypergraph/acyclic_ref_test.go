package hypergraph

import (
	"math/rand"
	"testing"
	"time"
)

// buildJoinTreeRef is the textbook GYO reduction over map-backed edge sets
// and an all-pairs ear scan: quadratic and allocation-heavy, but a direct
// transcription of the definition. It is the differential oracle for
// BuildJoinTree.
func buildJoinTreeRef(h *Hypergraph) (*JoinTree, bool) {
	m := h.M()
	if m == 0 {
		return &JoinTree{Parent: nil, Root: -1}, true
	}
	edges := make([]map[int]struct{}, m)
	for i := 0; i < m; i++ {
		s := make(map[int]struct{}, len(h.Edge(i)))
		for _, v := range h.Edge(i) {
			s[v] = struct{}{}
		}
		edges[i] = s
	}
	// occ[v] = number of live edges containing v.
	occ := make(map[int]int)
	for _, s := range edges {
		for v := range s {
			occ[v]++
		}
	}
	alive := make([]bool, m)
	parent := make([]int, m)
	for i := range alive {
		alive[i] = true
		parent[i] = -1
	}
	liveCount := m
	for {
		changed := false
		// Remove vertices occurring in exactly one live edge.
		for i := 0; i < m; i++ {
			if !alive[i] {
				continue
			}
			for v := range edges[i] {
				if occ[v] == 1 {
					delete(edges[i], v)
					delete(occ, v)
					changed = true
				}
			}
		}
		// Remove edges contained in another live edge (ears).
		for i := 0; i < m && liveCount > 1; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < m; j++ {
				if i == j || !alive[j] || !subsetOfRef(edges[i], edges[j]) {
					continue
				}
				alive[i] = false
				parent[i] = j
				for v := range edges[i] {
					occ[v]--
				}
				liveCount--
				changed = true
				break
			}
		}
		if liveCount == 1 {
			root := -1
			for i := 0; i < m; i++ {
				if alive[i] {
					root = i
				}
			}
			return &JoinTree{Parent: parent, Root: root}, true
		}
		if !changed {
			return nil, false
		}
	}
}

func subsetOfRef(a, b map[int]struct{}) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if _, ok := b[v]; !ok {
			return false
		}
	}
	return true
}

// growAcyclic builds an α-acyclic hypergraph by growing a join tree: each
// new edge keeps a random subset of an existing edge (its join-tree parent)
// and adds fresh vertices. With fresh == 0 it produces nested edges and
// exact duplicates; a parent subset of size 0 starts a new component.
func growAcyclic(rng *rand.Rand, edges, maxArity int) *Hypergraph {
	var es [][]int
	next := 0
	fresh := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = next
			next++
		}
		return out
	}
	es = append(es, fresh(1+rng.Intn(maxArity)))
	for len(es) < edges {
		p := es[rng.Intn(len(es))]
		var e []int
		for _, v := range p {
			if rng.Intn(2) == 0 {
				e = append(e, v)
			}
		}
		e = append(e, fresh(rng.Intn(maxArity))...)
		if len(e) == 0 {
			e = fresh(1)
		}
		es = append(es, e)
	}
	// Shuffle edge order so the reduction does not see the growth order.
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	h := NewHypergraph(next)
	for _, e := range es {
		h.AddEdge(e...)
	}
	return h
}

// randomEdges draws m edges over n vertices, each of a uniform arity in
// 1..3 (duplicates allowed): sparse enough that acyclic and cyclic
// verdicts both occur often.
func randomEdges(rng *rand.Rand, n, m int) *Hypergraph {
	h := NewHypergraph(n)
	for i := 0; i < m; i++ {
		e := make([]int, 1+rng.Intn(3))
		for j := range e {
			e[j] = rng.Intn(n)
		}
		h.AddEdge(e...)
	}
	return h
}

// withRedundantEdges returns h plus copies and random subsets of its edges:
// duplicates and nested edges never change acyclicity, but they exercise the
// reduction's tie and containment paths.
func withRedundantEdges(rng *rand.Rand, h *Hypergraph) *Hypergraph {
	out := NewHypergraph(h.N())
	for e := 0; e < h.M(); e++ {
		out.AddEdge(h.Edge(e)...)
	}
	for k := rng.Intn(h.M() + 1); k > 0; k-- {
		src := h.Edge(rng.Intn(h.M()))
		var sub []int
		for _, v := range src {
			if rng.Intn(3) > 0 {
				sub = append(sub, v)
			}
		}
		if len(sub) == 0 {
			sub = src
		}
		out.AddEdge(sub...)
	}
	return out
}

// checkAgainstRef asserts that BuildJoinTree agrees with the reference on
// acyclicity and that every tree either one returns verifies.
func checkAgainstRef(t *testing.T, what string, h *Hypergraph) {
	t.Helper()
	jt, ok := BuildJoinTree(h)
	ref, refOK := buildJoinTreeRef(h)
	if ok != refOK {
		t.Fatalf("%s: BuildJoinTree acyclic=%v, reference says %v\nedges %v", what, ok, refOK, h.Edges())
	}
	if ok && !VerifyJoinTree(h, jt) {
		t.Fatalf("%s: join tree %+v fails VerifyJoinTree\nedges %v", what, jt, h.Edges())
	}
	if refOK && !VerifyJoinTree(h, ref) {
		t.Fatalf("%s: reference join tree fails VerifyJoinTree\nedges %v", what, h.Edges())
	}
}

// TestBuildJoinTreeMatchesReference is the differential test: over 12k
// seeded hypergraphs — grown acyclic, uniformly random, and both with
// duplicate and nested edges added — the incidence-list reduction and the
// map-based reference agree on acyclicity, and every tree verifies.
func TestBuildJoinTreeMatchesReference(t *testing.T) {
	const perFamily = 3000
	acyclic := 0
	for seed := int64(0); seed < perFamily; seed++ {
		rng := rand.New(rand.NewSource(seed))
		grown := growAcyclic(rng, 1+rng.Intn(14), 4)
		if !IsAcyclic(grown) {
			t.Fatalf("seed %d: grown hypergraph is cyclic: %v", seed, grown.Edges())
		}
		checkAgainstRef(t, "grown", grown)
		checkAgainstRef(t, "grown+redundant", withRedundantEdges(rng, grown))

		random := randomEdges(rng, 2+rng.Intn(9), 1+rng.Intn(9))
		checkAgainstRef(t, "random", random)
		redundant := withRedundantEdges(rng, random)
		checkAgainstRef(t, "random+redundant", redundant)
		if IsAcyclic(random) {
			acyclic++
		}
	}
	// Both verdicts must be well represented among the random inputs, or
	// the differential test is only exercising one side.
	if acyclic < perFamily/10 || acyclic > perFamily*9/10 {
		t.Fatalf("random family is %d/%d acyclic; the mix is too lopsided to test both verdicts", acyclic, perFamily)
	}
}

// TestBuildJoinTreeQueenFast pins the reduction's cost on a dense cyclic
// input: the queen graph is where the old all-pairs ear scan took tens of
// milliseconds.
func TestBuildJoinTreeQueenFast(t *testing.T) {
	h := FromGraph(Queen(8))
	h.IncidentEdges(0) // build the index outside the timing
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if IsAcyclic(h) {
			t.Fatal("queen_8 reported acyclic")
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best > 20*time.Millisecond {
		t.Fatalf("IsAcyclic(queen_8) took %v at best, want well under the old ~30ms", best)
	}
}

func BenchmarkIsAcyclicQueen8(b *testing.B) {
	h := FromGraph(Queen(8))
	h.IncidentEdges(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		IsAcyclic(h)
	}
}

// decodeFuzzHypergraph turns fuzz bytes into a small hypergraph: the first
// byte picks the vertex count (1..16), then each byte adds vertex b mod n
// to the current edge and 0xff closes it. Empty edges are skipped.
func decodeFuzzHypergraph(data []byte) *Hypergraph {
	if len(data) == 0 {
		return NewHypergraph(0)
	}
	n := 1 + int(data[0])%16
	h := NewHypergraph(n)
	var cur []int
	flush := func() {
		if len(cur) > 0 && h.M() < 64 {
			h.AddEdge(cur...)
		}
		cur = cur[:0]
	}
	for _, b := range data[1:] {
		if b == 0xff {
			flush()
			continue
		}
		cur = append(cur, int(b)%n)
	}
	flush()
	return h
}

// FuzzBuildJoinTree checks BuildJoinTree against the reference reduction on
// arbitrary small hypergraphs: same verdict, and every tree verifies.
func FuzzBuildJoinTree(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0xff, 1, 2, 0xff, 2, 0})                // triangle: cyclic
	f.Add([]byte{3, 0, 1, 0xff, 1, 2, 0xff, 2, 0, 0xff, 0, 1, 2}) // covered triangle
	f.Add([]byte{5, 0, 1, 0xff, 0, 1, 0xff, 1})                   // duplicate and nested
	f.Add([]byte{7, 0, 1, 0xff, 2, 3, 0xff, 4, 5, 6})             // three components
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstRef(t, "fuzz", decodeFuzzHypergraph(data))
	})
}
