package hypergraph

// JoinTree is a join tree of a hypergraph: one node per hyperedge, with tree
// edges between nodes, satisfying the connectedness condition (for every
// vertex, the hyperedges containing it induce a subtree).
type JoinTree struct {
	// Parent[i] is the parent edge-index of hyperedge i, or -1 for the root.
	Parent []int
	// Root is the hyperedge index at the root.
	Root int
}

// Children returns, for each node, the list of its children.
func (t *JoinTree) Children() [][]int {
	ch := make([][]int, len(t.Parent))
	for i, p := range t.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// IsAcyclic reports whether the hypergraph is α-acyclic, using the
// GYO (Graham / Yu–Özsoyoğlu) reduction: repeatedly remove vertices that
// occur in at most one edge and edges contained in other edges. The
// hypergraph is acyclic iff the reduction erases every edge.
func IsAcyclic(h *Hypergraph) bool {
	_, ok := BuildJoinTree(h)
	return ok
}

// BuildJoinTree attempts to build a join tree via GYO reduction. It returns
// (tree, true) when the hypergraph is α-acyclic and (nil, false) otherwise.
//
// The reduction never materializes the shrinking edges. A vertex is shared
// while at least two live edges contain it; edge e is an ear when another
// live edge f contains all of e's shared vertices, and then e is removed and
// attached as a child of f. The connectedness condition holds by
// construction: an ear's private vertices occur in no other live edge, and
// its shared vertices are all in its parent. An ear with no shared vertex
// (the last edge of a connected component) is hung under the final root,
// which shares none of its vertices.
//
// Two facts keep the reduction near-linear. Any f that contains e's shared
// vertices contains the rarest of them, so only that vertex's incident edges
// are candidates. And an edge that is not an ear becomes one only when one
// of its vertices turns private, so an edge is re-examined only when a
// removal leaves it the last live holder of some vertex.
func BuildJoinTree(h *Hypergraph) (*JoinTree, bool) {
	m := h.M()
	if m == 0 {
		return &JoinTree{Parent: nil, Root: -1}, true
	}
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -1
	}
	n := h.N()
	// cnt[v] is the number of live edges containing v; mark[v] == stamp
	// flags v as a shared vertex of the edge under examination.
	cnt := make([]int32, n)
	mark := make([]int32, n)
	for v := 0; v < n; v++ {
		cnt[v] = int32(len(h.IncidentEdges(v)))
	}
	dead := make([]bool, m)
	queued := make([]bool, m)
	queue := make([]int32, m)
	for i := range queue {
		queue[i] = int32(i)
		queued[i] = true
	}
	live := m
	stamp := int32(0)
	for len(queue) > 0 && live > 1 {
		e := int(queue[0])
		queue = queue[1:]
		queued[e] = false
		if dead[e] {
			continue
		}
		// Mark e's shared vertices and pick the rarest as the pivot.
		stamp++
		shared, pivot := 0, -1
		for _, v := range h.edges[e] {
			if cnt[v] >= 2 {
				mark[v] = stamp
				shared++
				if pivot < 0 || cnt[v] < cnt[pivot] {
					pivot = v
				}
			}
		}
		f := -1
		if pivot >= 0 {
			for _, c := range h.IncidentEdges(pivot) {
				if c == e || dead[c] || len(h.edges[c]) < shared {
					continue
				}
				hit := 0
				for _, v := range h.edges[c] {
					if mark[v] == stamp {
						hit++
					}
				}
				if hit == shared {
					f = c
					break
				}
			}
			if f < 0 {
				continue // not an ear (yet)
			}
		}
		dead[e] = true
		live--
		parent[e] = f // -1 for a shared-vertex-free ear, fixed below
		for _, v := range h.edges[e] {
			if cnt[v]--; cnt[v] != 1 {
				continue
			}
			// v just turned private: its last live holder may now be an ear.
			for _, c := range h.IncidentEdges(v) {
				if !dead[c] {
					if !queued[c] {
						queued[c] = true
						queue = append(queue, int32(c))
					}
					break
				}
			}
		}
	}
	if live > 1 {
		return nil, false
	}
	root := 0
	for dead[root] {
		root++
	}
	for e, p := range parent {
		if p < 0 && e != root {
			parent[e] = root
		}
	}
	return &JoinTree{Parent: parent, Root: root}, true
}

// VerifyJoinTree checks that t is a valid join tree for h: it is a tree over
// all hyperedges and satisfies the connectedness condition.
func VerifyJoinTree(h *Hypergraph, t *JoinTree) bool {
	m := h.M()
	if m == 0 {
		return t.Root == -1 && len(t.Parent) == 0
	}
	if len(t.Parent) != m || t.Root < 0 || t.Root >= m || t.Parent[t.Root] != -1 {
		return false
	}
	// Every non-root node has a parent and the structure is acyclic and
	// connected (i.e., walking parents from any node reaches the root).
	for i := 0; i < m; i++ {
		seen := make(map[int]struct{})
		v := i
		for v != t.Root {
			if _, loop := seen[v]; loop {
				return false
			}
			seen[v] = struct{}{}
			p := t.Parent[v]
			if p < 0 || p >= m {
				return false
			}
			v = p
		}
	}
	// Connectedness: for each vertex, edges containing it induce a subtree.
	// Equivalent check: for each vertex v, the set S of nodes containing v is
	// connected in the tree. We test it by counting nodes of S whose parent is
	// also in S: a subtree has exactly |S|-1 such nodes.
	for v := 0; v < h.N(); v++ {
		inS := make(map[int]struct{})
		for _, e := range h.IncidentEdges(v) {
			inS[e] = struct{}{}
		}
		if len(inS) == 0 {
			continue
		}
		withParentIn := 0
		for e := range inS {
			if p := t.Parent[e]; p >= 0 {
				if _, ok := inS[p]; ok {
					withParentIn++
				}
			}
		}
		if withParentIn != len(inS)-1 {
			return false
		}
	}
	return true
}
