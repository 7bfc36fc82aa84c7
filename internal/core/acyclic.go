// The α-acyclic fast path. Deciding ghw ≤ k is NP-hard for every fixed
// k ≥ 3 (the source paper), but k = 1 is the tractable extreme: ghw(H) = 1
// exactly when H is α-acyclic, and a GYO reduction decides that in
// near-linear time while building a join tree. A join tree is a width-1 GHD
// as it stands — one node per hyperedge, bag = the edge, λ = {the edge} — so
// the portfolio answers acyclic inputs from the reduction alone, without
// starting the race.

package core

import (
	"fmt"
	"time"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
)

// acyclicLabel is the algo label of the fast path in traces, ledgers and
// the per-member metrics. It is not a selectable Algorithm: it only ever
// runs as the portfolio's pre-check.
const acyclicLabel = "acyclic"

// decomposeAcyclic returns the width-1 decomposition of h when h is
// α-acyclic, and (nil, nil) when it is not. The result carries the same
// contract as any Decompose result: a validated GHD with its TD view and an
// elimination ordering, lb = ub = 1 with Exact set, a RunStats timeline, and
// the degenerate one-member ledger (member "acyclic", zero search nodes).
func decomposeAcyclic(h *hypergraph.Hypergraph, opts Options) (*Decomposition, error) {
	start := time.Now()
	jt, ok := hypergraph.BuildJoinTree(h)
	if !ok {
		return nil, nil
	}
	m := h.M()
	g := &decomp.GHD{
		TreeDecomposition: decomp.TreeDecomposition{
			Tree: decomp.Tree{Parent: jt.Parent, Root: jt.Root},
			Bags: make([][]int, m),
		},
		Lambdas: make([][]int, m),
	}
	for e := 0; e < m; e++ {
		g.Bags[e] = append([]int(nil), h.Edge(e)...)
		g.Lambdas[e] = []int{e}
	}
	if err := g.Validate(h); err != nil {
		return nil, fmt.Errorf("core: acyclic join tree: %w", err)
	}
	d := &Decomposition{
		TD:         &g.TreeDecomposition,
		GHD:        g,
		Width:      1,
		LowerBound: 1,
		Exact:      true,
		Ordering:   decomp.OrderingFromDecomposition(h, &g.TreeDecomposition),
		Stats:      obs.NewRunStats(),
	}
	rec := obs.Tee(d.Stats, opts.Recorder)
	at := func() time.Duration { return time.Since(start) }
	rec.Record(obs.Event{Kind: obs.KindStart, T: 0, Algo: acyclicLabel, N: h.N(), M: m})
	rec.Record(obs.Event{Kind: obs.KindImprove, T: at(), Algo: acyclicLabel, Width: 1})
	rec.Record(obs.Event{Kind: obs.KindLowerBound, T: at(), Algo: acyclicLabel, LowerBound: 1})
	d.Elapsed = at()
	rec.Record(obs.Event{Kind: obs.KindStop, T: d.Elapsed, Algo: acyclicLabel,
		Width: 1, LowerBound: 1, Exact: true})
	d.Ledger = serialLedger(acyclicLabel, d, 0)
	for _, ev := range d.Ledger.Events(d.Elapsed) {
		rec.Record(ev)
	}
	return d, nil
}
