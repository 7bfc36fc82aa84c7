package csp

import (
	"fmt"

	"hypertree/internal/budget"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// SolveAcyclic solves an acyclic CSP from a join tree of its constraint
// hypergraph (thesis Figure 2.4, Algorithm Acyclic Solving). It returns a
// complete consistent assignment or nil. Variables constrained by no
// constraint receive their first domain value.
//
// jt must be a join tree of c.Hypergraph() (one node per constraint).
func SolveAcyclic(c *CSP, jt *hypergraph.JoinTree) []Value {
	if len(c.Constraints) == 0 {
		return freeAssignment(c, nil, nil)
	}
	tables := make([]*Table, len(c.Constraints))
	for i := range tables {
		tables[i] = domainTable(c, &c.Constraints[i])
	}
	return acyclicOnTables(c, tables, jt.Parent, jt.Root)
}

// PlaceConstraints assigns each constraint to the first node (in node order)
// whose bag contains its scope, returning node -> constraint indices. Every
// TD/GHD-based solver and the compiled query engine (internal/csp/engine)
// share this placement so their bag tables — and therefore their answers —
// agree exactly. Bags must cover every scope (guaranteed by Validate).
func PlaceConstraints(c *CSP, bags [][]int) [][]int {
	placed := make([][]int, len(bags))
	for ci := range c.Constraints {
		node := -1
		for i, bag := range bags {
			if containsAll(bag, c.Constraints[ci].Scope) {
				node = i
				break
			}
		}
		placed[node] = append(placed[node], ci)
	}
	return placed
}

// BagTable enumerates all assignments of the bag consistent with the given
// constraints (whose scopes lie inside the bag) — the node subproblem of
// join-tree clustering. It ticks bu once per candidate value placed while
// walking the assignment tree, so even a bag whose |domain|^|bag| space
// dwarfs its output is abandoned promptly when the budget trips.
func (c *CSP) BagTable(bag []int, constraints []int, bu *budget.B) (*Table, error) {
	t := &Table{Vars: append([]int(nil), bag...)}
	row := make([]Value, len(bag))
	pos := make(map[int]int, len(bag))
	for i, v := range bag {
		pos[v] = i
	}
	stop := false
	var rec func(i int)
	rec = func(i int) {
		if i == len(bag) {
			for _, ci := range constraints {
				con := &c.Constraints[ci]
				vals := make([]Value, len(con.Scope))
				for k, v := range con.Scope {
					vals[k] = row[pos[v]]
				}
				if !con.Allows(vals) {
					return
				}
			}
			t.Rows = append(t.Rows, append([]Value(nil), row...))
			return
		}
		for _, v := range c.Domains[bag[i]] {
			if !bu.Tick() {
				stop = true
				return
			}
			row[i] = v
			rec(i + 1)
			if stop {
				return
			}
		}
	}
	rec(0)
	if stop {
		return nil, Interrupted(bu)
	}
	return t, nil
}

// TopDownOrder returns the tree nodes so that every node precedes its
// children (root first, then children in BFS layers). All solvers and the
// compiled engine traverse nodes in exactly this order, which is what makes
// their greedy picks and enumeration sequences comparable.
func TopDownOrder(parent []int, root int) []int {
	return topDownOrder(parent, root)
}

// SolveFromTD solves an arbitrary CSP from a tree decomposition of its
// constraint hypergraph using join-tree clustering (thesis §2.4): each
// decomposition node becomes the subproblem of enumerating all consistent
// assignments of its bag under the constraints placed there, and the
// resulting join tree is processed by Acyclic Solving. The work per node is
// O(d^(width+1)).
func SolveFromTD(c *CSP, td *decomp.TreeDecomposition) []Value {
	if err := td.Validate(c.Hypergraph()); err != nil {
		panic(fmt.Sprintf("csp: invalid tree decomposition: %v", err))
	}
	placed := PlaceConstraints(c, td.Bags)
	// Solve each node subproblem: all bag assignments consistent with the
	// constraints placed there.
	tables := make([]*Table, len(td.Bags))
	for i, bag := range td.Bags {
		tables[i] = mustTable(c.BagTable(bag, placed[i], nil))
		if len(bag) > 0 && len(tables[i].Rows) == 0 {
			return nil
		}
	}
	return acyclicOnTables(c, tables, td.Parent, td.Root)
}

// SolveFromGHD solves an arbitrary CSP from a complete generalized
// hypertree decomposition of its constraint hypergraph (thesis Figure 2.9):
// each node's relation is the projection onto its bag of the join of the
// relations in its λ-set, and the resulting join tree is processed by
// Acyclic Solving. The work per node is O(|I|^width · log|I|)-style — no
// enumeration over domains.
func SolveFromGHD(c *CSP, g *decomp.GHD) []Value {
	h := c.Hypergraph()
	if err := g.Validate(h); err != nil {
		panic(fmt.Sprintf("csp: invalid GHD: %v", err))
	}
	if !g.IsComplete(h) {
		panic("csp: SolveFromGHD requires a complete GHD (call Complete first)")
	}
	tables := make([]*Table, len(g.Bags))
	for i, bag := range g.Bags {
		if len(bag) == 0 {
			// The empty bag's relation is the nullary identity (one empty
			// tuple), not the empty relation.
			tables[i] = &Table{Rows: [][]Value{{}}}
			continue
		}
		var t *Table
		for _, e := range g.Lambdas[i] {
			et := domainTable(c, &c.Constraints[e])
			if t == nil {
				t = et
			} else {
				t = mustTable(Join(t, et, nil))
			}
		}
		if t == nil {
			t = &Table{}
		}
		tables[i] = mustTable(Project(t, bag, nil))
		if len(bag) > 0 && len(tables[i].Rows) == 0 {
			return nil
		}
	}
	return acyclicOnTables(c, tables, g.Parent, g.Root)
}

// acyclicOnTables runs the two phases of Acyclic Solving over per-node
// tables arranged in the given rooted tree; nil means unsatisfiable.
func acyclicOnTables(c *CSP, tables []*Table, parent []int, root int) []Value {
	order := topDownOrder(parent, root)
	if !semijoinUp(tables, parent, order) {
		return nil
	}
	// Top-down phase: select consistent tuples.
	assignment := make([]Value, c.NumVars)
	assigned := make([]bool, c.NumVars)
	for _, node := range order {
		if len(tables[node].Vars) == 0 {
			continue
		}
		rows := selectConsistent(tables[node], assignment, assigned)
		if len(rows) == 0 {
			// Cannot happen on a valid join tree after the bottom-up phase.
			panic(fmt.Sprintf("csp: top-down selection failed at node %d", node))
		}
		row := rows[0]
		for i, v := range tables[node].Vars {
			assignment[v] = row[i]
			assigned[v] = true
		}
	}
	return freeAssignment(c, assignment, assigned)
}

// semijoinUp is the bottom-up phase of Acyclic Solving: children before
// parents (order is top-down), each parent keeps the rows that join with
// its child. It reports false as soon as a table is empty — an empty
// relation, whatever its arity, admits no solution.
func semijoinUp(tables []*Table, parent, order []int) bool {
	for i := len(order) - 1; i >= 1; i-- {
		node := order[i]
		p := parent[node]
		tables[p] = Semijoin(tables[p], tables[node])
		if len(tables[p].Rows) == 0 {
			return false
		}
	}
	return len(tables[order[0]].Rows) > 0
}

// topDownOrder returns the nodes so that every node precedes its children.
func topDownOrder(parent []int, root int) []int {
	children := make([][]int, len(parent))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	order := []int{root}
	for qi := 0; qi < len(order); qi++ {
		order = append(order, children[order[qi]]...)
	}
	return order
}

// freeAssignment extends a partial assignment with first-domain values for
// unassigned variables and verifies it only when complete.
func freeAssignment(c *CSP, assignment []Value, assigned []bool) []Value {
	if assignment == nil {
		assignment = make([]Value, c.NumVars)
		assigned = make([]bool, c.NumVars)
	}
	for v := 0; v < c.NumVars; v++ {
		if !assigned[v] {
			if len(c.Domains[v]) == 0 {
				return nil
			}
			assignment[v] = c.Domains[v][0]
		}
	}
	return assignment
}

// domainTable materializes a constraint as a table, dropping tuples with
// values outside the variables' domains (domains act as implicit unary
// constraints; brute force and bag enumeration respect them, so the
// relational solvers must too).
func domainTable(c *CSP, con *Constraint) *Table {
	t := &Table{Vars: append([]int(nil), con.Scope...)}
	for _, row := range con.Tuples {
		ok := true
		for i, v := range con.Scope {
			if !inDomain(c.Domains[v], row[i]) {
				ok = false
				break
			}
		}
		if ok {
			t.Rows = append(t.Rows, append([]Value(nil), row...))
		}
	}
	return t
}

func inDomain(domain []Value, x Value) bool {
	for _, d := range domain {
		if d == x {
			return true
		}
	}
	return false
}

func containsAll(sortedBag, subset []int) bool {
	for _, v := range subset {
		lo, hi := 0, len(sortedBag)
		found := false
		for lo < hi {
			mid := (lo + hi) / 2
			switch {
			case sortedBag[mid] == v:
				found = true
				lo = hi
			case sortedBag[mid] < v:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		if !found {
			return false
		}
	}
	return true
}
