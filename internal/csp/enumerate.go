package csp

import (
	"fmt"

	"hypertree/internal/decomp"
)

// EnumerateFromTD enumerates complete consistent assignments of c from a
// tree decomposition, backtrack-free after one bottom-up semijoin pass
// (the "all complete consistent assignments" use of decompositions, thesis
// §2.2.1/§2.4). At most limit assignments are produced (limit <= 0 means
// all); the total work is polynomial in the output size for fixed width.
// Variables in no bag are fixed to their first domain value rather than
// expanded, keeping the output focused on the constrained part.
func EnumerateFromTD(c *CSP, td *decomp.TreeDecomposition, limit int) [][]Value {
	if err := td.Validate(c.Hypergraph()); err != nil {
		panic(fmt.Sprintf("csp: invalid tree decomposition: %v", err))
	}
	placed := PlaceConstraints(c, td.Bags)
	tables := make([]*Table, len(td.Bags))
	for i, bag := range td.Bags {
		tables[i] = mustTable(c.BagTable(bag, placed[i], nil))
		if len(bag) > 0 && len(tables[i].Rows) == 0 {
			return nil
		}
	}
	order := topDownOrder(td.Parent, td.Root)
	// Bottom-up semijoins establish directional consistency.
	if !semijoinUp(tables, td.Parent, order) {
		return nil
	}

	var out [][]Value
	assignment := make([]Value, c.NumVars)
	assigned := make([]bool, c.NumVars)
	for v := 0; v < c.NumVars; v++ {
		if len(c.Domains[v]) == 0 {
			return nil
		}
		assignment[v] = c.Domains[v][0]
	}

	var rec func(oi int) bool // returns false once the limit is hit
	rec = func(oi int) bool {
		if oi == len(order) {
			out = append(out, append([]Value(nil), assignment...))
			return limit <= 0 || len(out) < limit
		}
		node := order[oi]
		t := tables[node]
		rows := selectConsistent(t, assignment, assigned)
		for _, row := range rows {
			var touched []int
			for i, v := range t.Vars {
				if !assigned[v] {
					assigned[v] = true
					touched = append(touched, v)
				}
				assignment[v] = row[i]
			}
			ok := rec(oi + 1)
			for _, v := range touched {
				assigned[v] = false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
	return out
}
