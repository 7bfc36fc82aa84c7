package csp

import (
	"fmt"

	"hypertree/internal/decomp"
)

// CountFromTD counts all complete consistent assignments of c by dynamic
// programming over a tree decomposition — the "computing all solutions"
// capability the thesis attributes to decomposition methods (§2.2.2, §2.4),
// in counting form. The work is O(nodes · d^(width+1)); by the
// connectedness condition every complete assignment decomposes uniquely
// into compatible bag tuples, so each is counted exactly once.
// Variables in no bag contribute a factor |domain|.
func CountFromTD(c *CSP, td *decomp.TreeDecomposition) int {
	if err := td.Validate(c.Hypergraph()); err != nil {
		panic(fmt.Sprintf("csp: invalid tree decomposition: %v", err))
	}
	// Place constraints and enumerate bag tables exactly as SolveFromTD.
	placed := PlaceConstraints(c, td.Bags)
	tables := make([]*Table, len(td.Bags))
	for i, bag := range td.Bags {
		tables[i] = mustTable(c.BagTable(bag, placed[i], nil))
	}

	children := td.Children()
	order := topDownOrder(td.Parent, td.Root)

	// counts[node][rowIdx] = number of assignments of the subtree's
	// variables (minus the bag's own, which are pinned by the row).
	counts := make([][]int, len(td.Bags))
	// Process bottom-up.
	for i := len(order) - 1; i >= 0; i-- {
		node := order[i]
		t := tables[node]
		counts[node] = make([]int, len(t.Rows))
		for ri, row := range t.Rows {
			total := 1
			for _, ch := range children[node] {
				sub := 0
				ct := tables[ch]
				ai, bi := sharedColumns(t, ct)
				for cri, crow := range ct.Rows {
					if compatible(row, crow, ai, bi) {
						sub += counts[ch][cri]
					}
				}
				total *= sub
				if total == 0 {
					break
				}
			}
			counts[node][ri] = total
		}
	}
	total := 0
	for _, cnt := range counts[td.Root] {
		total += cnt
	}
	// Variables appearing in no bag are unconstrained (a valid TD covers
	// every constraint scope, so such variables are in no constraint).
	inBag := make([]bool, c.NumVars)
	for _, bag := range td.Bags {
		for _, v := range bag {
			inBag[v] = true
		}
	}
	for v := 0; v < c.NumVars; v++ {
		if !inBag[v] {
			total *= len(c.Domains[v])
		}
	}
	return total
}

func compatible(rowA, rowB []Value, ai, bi []int) bool {
	for k := range ai {
		if rowA[ai[k]] != rowB[bi[k]] {
			return false
		}
	}
	return true
}
