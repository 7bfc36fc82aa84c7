// Package engine compiles a (CSP, decomposition) pair once into an
// immutable query Plan and then answers CSP queries against it at serving
// speed. Compilation does all the per-instance work up front: the bag tables
// of join-tree clustering (thesis §2.4) are materialized and fully
// Yannakakis-reduced (one bottom-up and one top-down semijoin pass), rows
// are packed into flat []Value arenas, and every child table carries a
// uint64 tuple-hash index on its columns shared with the parent. A compiled
// Plan serves Solve, Count, and Enumerate(limit) — optionally parameterized
// by per-query unary pins pushed into the index probes as residual filters —
// from any number of goroutines with zero synchronization: all mutable
// per-query state lives in a Cursor owned by a single goroutine.
//
// The engine's answers are pinned by differential tests to be *exactly*
// equal (values and enumeration order) to the reference paths
// csp.SolveFromTD, csp.CountFromTD, csp.EnumerateFromTD and csp.SolveFromGHD.
// One deliberate divergence: solution counts saturate at math.MaxInt with an
// explicit overflow flag (Stats.SolutionsOverflow, Cursor.CountExact) where
// csp.CountFromTD silently wraps — a serving endpoint must not hand clients
// wrapped garbage as an authoritative answer.
// A query with pins behaves exactly like the reference run on a copy of the
// CSP whose pinned domains are restricted to the pinned value. This works
// because both sides traverse nodes in csp.TopDownOrder, all relational
// operators preserve row order, and by the connectedness condition a row's
// consistency with the global partial assignment is equivalent to its
// compatibility with the parent's chosen row.
package engine

import (
	"fmt"

	"hypertree/internal/budget"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
)

// node is one decomposition node in BFS (top-down) order. All fields are
// immutable after Compile.
type node struct {
	vars  []int       // column -> variable id
	width int         // len(vars)
	arena []csp.Value // row r is arena[r*width : (r+1)*width]
	nrows int32

	parent   int32   // BFS index of the parent node, -1 for the root
	pcols    []int32 // columns of the shared variables in the PARENT's table
	mcols    []int32 // columns of the shared variables in THIS table (parallel)
	children []int32 // BFS indexes of children, in BFS order

	// index buckets this node's rows by the hash of their mcols values; a
	// probe hashes the parent row at pcols. Buckets keep row order. nil for
	// the root (root candidates are a plain scan).
	index map[uint64][]int32
}

// row returns row r of the node's arena (a view, never a copy).
func (n *node) row(r int32) []csp.Value {
	return n.arena[int(r)*n.width : (int(r)+1)*n.width]
}

// matchRow reports whether row r agrees with the parent row prow on the
// shared columns — the exact comparison behind every hash bucket hit.
func (n *node) matchRow(r int32, prow []csp.Value) bool {
	row := n.row(r)
	for i, mc := range n.mcols {
		if row[mc] != prow[n.pcols[i]] {
			return false
		}
	}
	return true
}

// Plan is a compiled, immutable query plan. It is safe for concurrent use:
// all methods are read-only, and per-query scratch lives in Cursors.
type Plan struct {
	numVars int
	domains [][]csp.Value
	nodes   []node  // BFS order; nodes[0] is the root (empty when unsat)
	rowOff  []int32 // node -> offset into flat per-row cursor state
	rowsTot int
	free    []int // variables in no bag ("free"); get Domains[v][0]

	tablesEmpty  bool        // a required table reduced to empty: no solutions, ever
	emptyFreeDom bool        // some free variable has an empty domain (Solve unsat)
	anyEmptyDom  bool        // some variable has an empty domain (Enumerate -> nil)
	solution     []csp.Value // canonical pin-free solution, nil if unsat
	total        int         // pin-free solution count, saturated at MaxInt
	totalOv      bool        // total saturated: it is a lower bound, not exact
	width        int         // decomposition width, for Stats
	hash         hashFunc
}

// Stats summarizes a compiled plan for observability surfaces.
type Stats struct {
	Nodes       int  `json:"nodes"`
	Rows        int  `json:"rows"` // total materialized (reduced) rows
	MaxBagRows  int  `json:"max_bag_rows"`
	Width       int  `json:"width"`
	NumVars     int  `json:"num_vars"`
	Satisfiable bool `json:"satisfiable"`
	Solutions   int  `json:"solutions"`
	// SolutionsOverflow reports the count DP saturated at math.MaxInt:
	// Solutions is then a saturated lower bound, not the true value (which
	// does not fit an int). The reference csp.CountFromTD wraps instead.
	SolutionsOverflow bool `json:"solutions_overflow,omitempty"`
}

// Stats returns compile-time facts about the plan.
func (p *Plan) Stats() Stats {
	s := Stats{
		Nodes:             len(p.nodes),
		Rows:              p.rowsTot,
		Width:             p.width,
		NumVars:           p.numVars,
		Satisfiable:       p.solution != nil,
		Solutions:         p.total,
		SolutionsOverflow: p.totalOv,
	}
	for i := range p.nodes {
		if int(p.nodes[i].nrows) > s.MaxBagRows {
			s.MaxBagRows = int(p.nodes[i].nrows)
		}
	}
	return s
}

// NumVars returns the number of variables of the compiled CSP.
func (p *Plan) NumVars() int { return p.numVars }

// Compile builds a Plan from a tree decomposition of c's constraint
// hypergraph, mirroring csp.SolveFromTD's clustering: each constraint is
// placed at the first bag containing its scope and each node's table is the
// enumeration of its bag under the constraints placed there.
func Compile(c *csp.CSP, td *decomp.TreeDecomposition) (*Plan, error) {
	return CompileBudget(c, td, nil)
}

// CompileBudget is Compile under a budget: table materialization and the
// count DP tick bu once per unit of work (an enumeration step, an emitted
// or probed row) and compilation aborts with a *csp.InterruptedError as
// soon as any limit trips — a bag whose |domain|^|bag| space is
// astronomically larger than the request that declared it cannot wedge the
// caller. A nil budget never trips.
func CompileBudget(c *csp.CSP, td *decomp.TreeDecomposition, bu *budget.B) (*Plan, error) {
	if err := td.Validate(c.Hypergraph()); err != nil {
		return nil, fmt.Errorf("engine: invalid tree decomposition: %w", err)
	}
	placed := csp.PlaceConstraints(c, td.Bags)
	tables := make([]*csp.Table, len(td.Bags))
	for i, bag := range td.Bags {
		t, err := c.BagTable(bag, placed[i], bu)
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	return build(c, tables, td.Parent, td.Root, td.Width(), bu)
}

// CompileGHD builds a Plan from a complete generalized hypertree
// decomposition, mirroring csp.SolveFromGHD: each node's table is the
// projection onto its bag of the join of its λ-set relations — no
// enumeration over domains, so compile cost is output-sensitive.
func CompileGHD(c *csp.CSP, g *decomp.GHD) (*Plan, error) {
	return CompileGHDBudget(c, g, nil)
}

// CompileGHDBudget is CompileGHD under a budget, ticking bu per joined,
// projected or probed row; see CompileBudget.
func CompileGHDBudget(c *csp.CSP, g *decomp.GHD, bu *budget.B) (*Plan, error) {
	h := c.Hypergraph()
	if err := g.Validate(h); err != nil {
		return nil, fmt.Errorf("engine: invalid GHD: %w", err)
	}
	if !g.IsComplete(h) {
		return nil, fmt.Errorf("engine: GHD must be complete (call Complete first)")
	}
	tables := make([]*csp.Table, len(g.Bags))
	for i, bag := range g.Bags {
		if len(bag) == 0 {
			// The empty bag's relation is the nullary identity (one empty
			// tuple), not the empty relation.
			tables[i] = &csp.Table{Rows: [][]csp.Value{{}}}
			continue
		}
		var t *csp.Table
		for _, e := range g.Lambdas[i] {
			et := c.ConstraintTable(e)
			if t == nil {
				t = et
			} else {
				joined, err := csp.Join(t, et, bu)
				if err != nil {
					return nil, err
				}
				t = joined
			}
		}
		if t == nil {
			t = &csp.Table{}
		}
		proj, err := csp.Project(t, bag, bu)
		if err != nil {
			return nil, err
		}
		tables[i] = proj
	}
	return build(c, tables, g.Parent, g.Root, g.Width(), bu)
}

// build runs the shared compile pipeline: Yannakakis reduction, arena
// packing, index construction, the pin-free count DP, and the canonical
// pin-free solution. The count DP ticks bu per candidate-row check (its
// only superlinear-in-rows phase); the semijoin passes and index build are
// linear in rows already paid for during materialization.
func build(c *csp.CSP, tables []*csp.Table, parentOf []int, root, width int, bu *budget.B) (*Plan, error) {
	p := &Plan{numVars: c.NumVars, width: width, hash: tupleHashHook}
	p.domains = make([][]csp.Value, c.NumVars)
	for v := range p.domains {
		p.domains[v] = append([]csp.Value(nil), c.Domains[v]...)
		if len(p.domains[v]) == 0 {
			p.anyEmptyDom = true
		}
	}
	inBag := make([]bool, c.NumVars)
	for _, t := range tables {
		for _, v := range t.Vars {
			inBag[v] = true
		}
	}
	for v := 0; v < c.NumVars; v++ {
		if !inBag[v] {
			p.free = append(p.free, v)
			if len(p.domains[v]) == 0 {
				p.emptyFreeDom = true
			}
		}
	}

	order := csp.TopDownOrder(parentOf, root)

	// Full Yannakakis reduction. After the bottom-up pass every row has an
	// extension into its whole subtree; after the top-down pass every row is
	// also reachable from some root row, so each surviving row participates
	// in at least one solution (over the bag variables).
	for _, t := range tables {
		if len(t.Vars) > 0 && len(t.Rows) == 0 {
			p.tablesEmpty = true
		}
	}
	if !p.tablesEmpty {
		for i := len(order) - 1; i >= 1; i-- {
			nd := order[i]
			pa := parentOf[nd]
			tables[pa] = csp.Semijoin(tables[pa], tables[nd])
			if len(tables[pa].Vars) > 0 && len(tables[pa].Rows) == 0 {
				p.tablesEmpty = true
				break
			}
		}
	}
	if p.tablesEmpty {
		// Unsatisfiable for every query (pins only shrink the solution
		// space): compile the O(1) empty plan. total stays 0.
		return p, nil
	}
	for _, nd := range order[1:] {
		// Top-down pass; cannot empty a table (every remaining parent row
		// has support in each child after the bottom-up pass).
		tables[nd] = csp.Semijoin(tables[nd], tables[parentOf[nd]])
	}

	// Pack nodes in BFS order.
	pos := make([]int32, len(tables))
	for k, orig := range order {
		pos[orig] = int32(k)
	}
	p.nodes = make([]node, len(order))
	p.rowOff = make([]int32, len(order)+1)
	for k, orig := range order {
		t := tables[orig]
		n := &p.nodes[k]
		n.vars = append([]int(nil), t.Vars...)
		n.width = len(t.Vars)
		n.nrows = int32(len(t.Rows))
		n.arena = make([]csp.Value, 0, len(t.Rows)*n.width)
		for _, r := range t.Rows {
			n.arena = append(n.arena, r...)
		}
		if orig == root {
			n.parent = -1
		} else {
			pk := pos[parentOf[orig]]
			n.parent = pk
			pt := tables[parentOf[orig]]
			pcol := make(map[int]int32, len(pt.Vars))
			for j, v := range pt.Vars {
				pcol[v] = int32(j)
			}
			for j, v := range t.Vars {
				if pc, ok := pcol[v]; ok {
					n.mcols = append(n.mcols, int32(j))
					n.pcols = append(n.pcols, pc)
				}
			}
			p.nodes[pk].children = append(p.nodes[pk].children, int32(k))
		}
		p.rowOff[k+1] = p.rowOff[k] + n.nrows
	}
	p.rowsTot = int(p.rowOff[len(order)])

	// Hash indexes for every non-root node, on its shared-with-parent
	// columns. An empty shared set degenerates to one bucket holding every
	// row — exactly the "all rows compatible" semantics of the reference.
	for k := 1; k < len(p.nodes); k++ {
		n := &p.nodes[k]
		n.index = make(map[uint64][]int32, n.nrows)
		for r := int32(0); r < n.nrows; r++ {
			h := p.hash(n.row(r), n.mcols)
			n.index[h] = append(n.index[h], r)
		}
	}

	// Pin-free count DP (csp.CountFromTD semantics, except that overflow
	// saturates at MaxInt instead of wrapping): counts[row] = number of
	// extensions of the row into its subtree; total = root sum times a
	// |domain| factor per free variable. ovRows marks rows whose count
	// saturated somewhere below, so the final total carries an honest
	// "lower bound only" flag.
	counts := make([]int, p.rowsTot)
	ovRows := make([]bool, p.rowsTot)
	for k := len(p.nodes) - 1; k >= 0; k-- {
		n := &p.nodes[k]
		off := p.rowOff[k]
		for r := int32(0); r < n.nrows; r++ {
			row := n.row(r)
			total, tOv := 1, false
			for _, ch := range n.children {
				cn := &p.nodes[ch]
				coff := p.rowOff[ch]
				sub, sOv := 0, false
				for _, rr := range cn.index[p.hash(row, cn.pcols)] {
					if !bu.Tick() {
						return nil, csp.Interrupted(bu)
					}
					if cn.matchRow(rr, row) {
						var o bool
						sub, o = satAdd(sub, counts[coff+rr])
						sOv = sOv || o || ovRows[coff+rr]
					}
				}
				var o bool
				total, o = satMul(total, sub)
				tOv = tOv || o
				if total == 0 {
					// Exactly zero extensions, whatever saturated elsewhere.
					tOv = false
					break
				}
				tOv = tOv || sOv
			}
			counts[off+r] = total
			ovRows[off+r] = tOv
		}
	}
	for r := int32(0); r < p.nodes[0].nrows; r++ {
		var o bool
		p.total, o = satAdd(p.total, counts[r])
		p.totalOv = p.totalOv || o || ovRows[r]
	}
	for _, v := range p.free {
		var o bool
		p.total, o = satMul(p.total, len(p.domains[v]))
		p.totalOv = p.totalOv || o
	}
	if p.total == 0 {
		p.totalOv = false
	}

	// Canonical pin-free solution: the greedy top-down walk. On fully
	// reduced tables every compatible candidate extends, so the walk never
	// backtracks, and it picks exactly the rows the reference's
	// selectConsistent/rows[0] pick does.
	if !p.emptyFreeDom {
		sol := make([]csp.Value, p.numVars)
		choice := make([]int32, len(p.nodes))
		for k := range p.nodes {
			n := &p.nodes[k]
			r := int32(0)
			if n.parent >= 0 {
				prow := p.nodes[n.parent].row(choice[n.parent])
				r = -1
				for _, rr := range n.index[p.hash(prow, n.pcols)] {
					if n.matchRow(rr, prow) {
						r = rr
						break
					}
				}
				if r < 0 {
					// Unreachable after a full reduction; guard for misuse.
					panic(fmt.Sprintf("engine: reduced node %d has no support", k))
				}
			}
			choice[k] = r
			row := n.row(r)
			for i, v := range n.vars {
				sol[v] = row[i]
			}
		}
		for _, v := range p.free {
			sol[v] = p.domains[v][0]
		}
		p.solution = sol
	}
	return p, nil
}
