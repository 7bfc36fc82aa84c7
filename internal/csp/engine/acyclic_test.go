package engine

import (
	"math/rand"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/csp"
)

// acyclicCSP builds a random CSP whose constraint hypergraph is α-acyclic:
// each new scope keeps part of an earlier scope and adds fresh variables,
// and every scope gets a random relation over a domain of 2 or 3 values.
func acyclicCSP(rng *rand.Rand) *csp.CSP {
	var scopes [][]int
	next := 0
	for m := 2 + rng.Intn(5); len(scopes) < m; {
		var s []int
		if len(scopes) > 0 {
			for _, v := range scopes[rng.Intn(len(scopes))] {
				if rng.Intn(2) == 0 {
					s = append(s, v)
				}
			}
		}
		for k := 1 + rng.Intn(2); k > 0 && len(s) < 3; k-- {
			s = append(s, next)
			next++
		}
		scopes = append(scopes, s)
	}
	d := 2 + rng.Intn(2)
	domain := make([]csp.Value, d)
	for i := range domain {
		domain[i] = i
	}
	c := csp.New(next, domain)
	for _, s := range scopes {
		total := 1
		for range s {
			total *= d
		}
		var tuples [][]csp.Value
		for t := 0; t < total; t++ {
			if rng.Intn(3) == 0 {
				continue
			}
			row := make([]csp.Value, len(s))
			for i, x := 0, t; i < len(s); i, x = i+1, x/d {
				row[i] = x % d
			}
			tuples = append(tuples, row)
		}
		c.AddConstraint(s, tuples)
	}
	return c
}

// TestAcyclicFastPathPlanCounts closes the loop from the portfolio's
// α-acyclic fast path to served answers: the width-1 join-tree GHD it
// returns compiles into a plan whose counts, unpinned and pinned, equal
// brute-force counting on the (pin-restricted) CSP.
func TestAcyclicFastPathPlanCounts(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := acyclicCSP(rng)
		d, err := core.DecomposePortfolio(c.Hypergraph(), core.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d.Width != 1 || d.Ledger.Winner != "acyclic" {
			t.Fatalf("seed %d: width %d winner %q, want the width-1 fast path", seed, d.Width, d.Ledger.Winner)
		}
		plan, err := CompileGHD(c, d.GHD)
		if err != nil {
			t.Fatalf("seed %d: CompileGHD: %v", seed, err)
		}
		cu := plan.NewCursor()
		if got, want := cu.Count(nil), c.CountSolutionsBrute(); got != want {
			t.Fatalf("seed %d: plan count %d, brute force %d", seed, got, want)
		}
		pins := []Pin{{Var: rng.Intn(c.NumVars), Val: rng.Intn(3)}}
		if got, want := cu.Count(pins), restrict(c, pins).CountSolutionsBrute(); got != want {
			t.Fatalf("seed %d: pinned %v plan count %d, brute force %d", seed, pins, got, want)
		}
	}
}
