package core

import (
	"bytes"
	"math/rand"
	"testing"

	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
)

// randomAcyclic grows an α-acyclic hypergraph edge by edge: each new edge
// keeps a random subset of an existing edge (its join-tree parent) plus
// fresh vertices, so every vertex is covered and the edge order is the
// growth order shuffled.
func randomAcyclic(rng *rand.Rand, edges, maxArity int) *hypergraph.Hypergraph {
	es := [][]int{}
	next := 0
	fresh := func(k int, e []int) []int {
		for ; k > 0; k-- {
			e = append(e, next)
			next++
		}
		return e
	}
	es = append(es, fresh(1+rng.Intn(maxArity), nil))
	for len(es) < edges {
		var e []int
		for _, v := range es[rng.Intn(len(es))] {
			if rng.Intn(2) == 0 {
				e = append(e, v)
			}
		}
		e = fresh(rng.Intn(maxArity), e)
		if len(e) == 0 {
			e = fresh(1, e)
		}
		es = append(es, e)
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	h := hypergraph.NewHypergraph(next)
	for _, e := range es {
		h.AddEdge(e...)
	}
	return h
}

// TestPortfolioAcyclicFastPath pins the fast path's contract on random
// α-acyclic inputs: width 1 proven exact (lb 1) without a race, a validated
// GHD and TD, an elimination ordering that realizes width 1, the one-member
// "acyclic" ledger balancing with zero search nodes, and a trace that passes
// the strict validator.
func TestPortfolioAcyclicFastPath(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomAcyclic(rng, 1+rng.Intn(30), 4)
		var buf bytes.Buffer
		rec := obs.NewJSONLWriter(&buf)
		d, err := DecomposePortfolio(h, Options{Seed: seed, Recorder: rec})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		validateAnytime(t, h, AlgPortfolio, d)
		if d.Width != 1 || d.LowerBound != 1 || !d.Exact || d.Interrupted {
			t.Fatalf("seed %d: width %d lb %d exact %v interrupted %v, want 1/1/true/false",
				seed, d.Width, d.LowerBound, d.Exact, d.Interrupted)
		}
		if d.GHD.Width() != 1 || d.Nodes != 0 {
			t.Fatalf("seed %d: GHD width %d, %d nodes", seed, d.GHD.Width(), d.Nodes)
		}
		g, err := elim.GHDFromOrdering(h, d.Ordering, true, nil)
		if err != nil || g.Width() != 1 {
			t.Fatalf("seed %d: ordering realizes width %v (err %v), want 1", seed, g, err)
		}
		led := d.Ledger
		if err := led.Conserved(); err != nil {
			t.Fatalf("seed %d: ledger: %v", seed, err)
		}
		if led.Portfolio || led.Winner != acyclicLabel || len(led.Members) != 1 || led.TotalNodes != 0 {
			t.Fatalf("seed %d: ledger %+v, want the one-member %q ledger", seed, led, acyclicLabel)
		}
		if m := led.Members[0]; m.BestWidth != 1 || m.LowerBound != 1 || len(m.Claims) != 1 {
			t.Fatalf("seed %d: member row %+v", seed, m)
		}
		sum, err := obs.ValidateTraceStrict(&buf)
		if err != nil {
			t.Fatalf("seed %d: trace: %v\n%s", seed, err, buf.String())
		}
		if len(sum.Algos) != 1 || sum.Algos[0] != acyclicLabel {
			t.Fatalf("seed %d: trace algos %v, want only %q", seed, sum.Algos, acyclicLabel)
		}
		if err := d.Stats.CheckTimeline(); err != nil {
			t.Fatalf("seed %d: timeline: %v", seed, err)
		}
	}
}

// TestAcyclicIffGHWOne checks the fact the fast path rests on against the
// exhaustive ghw solver: ghw(H) = 1 exactly when H is α-acyclic. It covers
// every vertex-covering hypergraph on up to 4 vertices (all 2^15 edge
// families on 4) and random ones on 5 to 7 vertices, with arities mixed so
// both verdicts occur often.
func TestAcyclicIffGHWOne(t *testing.T) {
	check := func(h *hypergraph.Hypergraph) {
		t.Helper()
		if !h.CoversAllVertices() {
			return
		}
		if ghw1, acyclic := elim.ExhaustiveGHW(h) == 1, hypergraph.IsAcyclic(h); ghw1 != acyclic {
			t.Fatalf("ghw==1 is %v but IsAcyclic is %v on %v", ghw1, acyclic, h.Edges())
		}
	}
	for n := 1; n <= 4; n++ {
		subsets := 1<<n - 1 // nonempty vertex subsets, by bitmask 1..subsets
		for family := 1; family < 1<<subsets; family++ {
			h := hypergraph.NewHypergraph(n)
			for s := 1; s <= subsets; s++ {
				if family&(1<<(s-1)) == 0 {
					continue
				}
				var e []int
				for v := 0; v < n; v++ {
					if s&(1<<v) != 0 {
						e = append(e, v)
					}
				}
				h.AddEdge(e...)
			}
			check(h)
		}
	}
	rng := rand.New(rand.NewSource(7))
	both := [2]int{}
	for i := 0; i < 600; i++ {
		n := 5 + rng.Intn(3)
		h := hypergraph.NewHypergraph(n)
		for v := 0; v < n; v++ {
			// One edge per vertex keeps every vertex covered; arities of 2–3
			// make cycles likely, the occasional large edge absorbs them.
			e := []int{v}
			for k := rng.Intn(3); k > 0; k-- {
				e = append(e, rng.Intn(n))
			}
			if rng.Intn(6) == 0 {
				e = append(e, rng.Perm(n)[:n/2+1]...)
			}
			h.AddEdge(e...)
		}
		check(h)
		if hypergraph.IsAcyclic(h) {
			both[1]++
		} else {
			both[0]++
		}
	}
	if both[0] < 60 || both[1] < 60 {
		t.Fatalf("random family split %d cyclic / %d acyclic; too lopsided to test both directions", both[0], both[1])
	}
}

// TestPortfolioAcyclicSkipsNamedAlgorithms: only the portfolio takes the
// fast path. An explicitly named algorithm still runs as asked on an
// acyclic input, so per-algorithm tests and benchmarks keep measuring it.
func TestPortfolioAcyclicSkipsNamedAlgorithms(t *testing.T) {
	h := randomAcyclic(rand.New(rand.NewSource(3)), 12, 3)
	for _, alg := range []Algorithm{AlgGreedy, AlgBBGHW} {
		d, err := Decompose(h, Options{Algorithm: alg, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if d.Width != 1 || d.Ledger.Winner != string(alg) {
			t.Fatalf("%s on acyclic input: width %d winner %q", alg, d.Width, d.Ledger.Winner)
		}
	}
}

func BenchmarkPortfolioGrid2D5(b *testing.B) {
	h := hypergraph.Grid2D(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposePortfolio(h, Options{Seed: 1, MaxNodes: 5000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPortfolioAcyclic40(b *testing.B) {
	h := randomAcyclic(rand.New(rand.NewSource(3)), 40, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposePortfolio(h, Options{Seed: 1, MaxNodes: 5000}); err != nil {
			b.Fatal(err)
		}
	}
}
