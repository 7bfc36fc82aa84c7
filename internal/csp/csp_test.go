package csp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/decomp"
	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
)

// australia models thesis Example 1: 3-coloring the states of Australia.
// Variables: WA NT Q SA NSW V TAS (0..6); colors r g b (0 1 2).
func australia() *CSP {
	c := New(7, []Value{0, 1, 2})
	c.VarNames = []string{"WA", "NT", "Q", "SA", "NSW", "V", "TAS"}
	for _, e := range [][2]int{
		{1, 0}, // NT-WA
		{3, 0}, // SA-WA
		{1, 2}, // NT-Q
		{1, 3}, // NT-SA
		{2, 3}, // Q-SA
		{4, 2}, // NSW-Q
		{4, 5}, // NSW-V
		{4, 3}, // NSW-SA
		{3, 5}, // SA-V
	} {
		c.AddNotEqual(e[0], e[1])
	}
	return c
}

// example5CSP is thesis Example 5: six variables, three ternary constraints.
func example5CSP() *CSP {
	// Domains: x1 ∈ {a,b} -> {0,1}; x2..x6 ∈ {b,c} -> {1,2}.
	c := &CSP{NumVars: 6, Domains: [][]Value{
		{0, 1}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2},
	}}
	// R1 over (x1,x2,x3): {(a,b,c),(a,c,b),(b,b,c)}.
	c.AddConstraint([]int{0, 1, 2}, [][]Value{{0, 1, 2}, {0, 2, 1}, {1, 1, 2}})
	// R2 over (x1,x5,x6): {(a,b,c),(a,c,b)}.
	c.AddConstraint([]int{0, 4, 5}, [][]Value{{0, 1, 2}, {0, 2, 1}})
	// R3 over (x3,x4,x5): {(c,b,c),(c,c,b)}.
	c.AddConstraint([]int{2, 3, 4}, [][]Value{{2, 1, 2}, {2, 2, 1}})
	return c
}

func TestAustraliaBruteForce(t *testing.T) {
	c := australia()
	sol := c.BruteForce()
	if sol == nil {
		t.Fatal("Australia should be 3-colorable")
	}
	if !c.Consistent(sol) {
		t.Fatal("brute-force solution inconsistent")
	}
	// TAS is unconstrained; the constraint hypergraph is the map graph.
	h := c.Hypergraph()
	if h.N() != 7 || h.M() != 9 {
		t.Fatalf("constraint hypergraph n=%d m=%d", h.N(), h.M())
	}
}

func TestAustraliaFromTD(t *testing.T) {
	c := australia()
	h := c.Hypergraph()
	order := elim.MinFillOrdering(h.PrimalGraph(), nil)
	td := elim.TDFromOrdering(h, order)
	sol := SolveFromTD(c, td)
	if sol == nil {
		t.Fatal("SolveFromTD found no solution")
	}
	if !c.Consistent(sol) {
		t.Fatalf("SolveFromTD solution inconsistent: %v", sol)
	}
}

func TestExample5AllSolvers(t *testing.T) {
	c := example5CSP()
	want := c.BruteForce()
	if want == nil {
		t.Fatal("Example 5 should be satisfiable")
	}
	h := c.Hypergraph()
	order := []int{5, 4, 3, 2, 1, 0}
	td := elim.TDFromOrdering(h, order)
	if sol := SolveFromTD(c, td); sol == nil || !c.Consistent(sol) {
		t.Fatalf("SolveFromTD failed: %v", sol)
	}
	g, err := elim.GHDFromOrdering(h, order, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Complete(h)
	if sol := SolveFromGHD(c, g); sol == nil || !c.Consistent(sol) {
		t.Fatalf("SolveFromGHD failed: %v", sol)
	}
}

// Thesis Figure 2.8/2.9 use the Figure 2.6 decomposition; solving from it
// must give a consistent assignment.
func TestExample5FromFigure26TD(t *testing.T) {
	c := example5CSP()
	td := &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: []int{-1, 0, 0, 0}, Root: 0},
		Bags: [][]int{{0, 2, 4}, {0, 1, 2}, {2, 3, 4}, {0, 4, 5}},
	}
	sol := SolveFromTD(c, td)
	if sol == nil || !c.Consistent(sol) {
		t.Fatalf("solving from Figure 2.6 TD failed: %v", sol)
	}
}

func TestUnsatisfiableDetected(t *testing.T) {
	// x ≠ y with single-value domains.
	c := &CSP{NumVars: 2, Domains: [][]Value{{0}, {0}}}
	c.AddConstraint([]int{0, 1}, [][]Value{{0, 1}, {1, 0}})
	if c.BruteForce() != nil {
		t.Fatal("should be unsatisfiable")
	}
	h := c.Hypergraph()
	td := elim.TDFromOrdering(h, []int{0, 1})
	if SolveFromTD(c, td) != nil {
		t.Fatal("SolveFromTD should report unsatisfiable")
	}
	g, err := elim.GHDFromOrdering(h, []int{0, 1}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Complete(h)
	if SolveFromGHD(c, g) != nil {
		t.Fatal("SolveFromGHD should report unsatisfiable")
	}
}

func TestSolveAcyclic(t *testing.T) {
	// An acyclic CSP: chain of binary constraints x0=x1, x1=x2, x2!=x3.
	c := New(4, []Value{0, 1})
	c.AddConstraint([]int{0, 1}, [][]Value{{0, 0}, {1, 1}})
	c.AddConstraint([]int{1, 2}, [][]Value{{0, 0}, {1, 1}})
	c.AddNotEqual(2, 3)
	h := c.Hypergraph()
	jt, ok := hypergraph.BuildJoinTree(h)
	if !ok {
		t.Fatal("chain should be acyclic")
	}
	sol := SolveAcyclic(c, jt)
	if sol == nil || !c.Consistent(sol) {
		t.Fatalf("SolveAcyclic failed: %v", sol)
	}
	// Make it unsatisfiable: x0 pinned 0, x2 pinned 1 via unary constraints.
	c.AddConstraint([]int{0}, [][]Value{{0}})
	c.AddConstraint([]int{2}, [][]Value{{1}})
	h2 := c.Hypergraph()
	jt2, ok := hypergraph.BuildJoinTree(h2)
	if !ok {
		t.Fatal("still acyclic with unary constraints")
	}
	if got := SolveAcyclic(c, jt2); got != nil {
		t.Fatalf("expected unsatisfiable, got %v", got)
	}
}

func TestRelationOps(t *testing.T) {
	a := &Table{Vars: []int{0, 1}, Rows: [][]Value{{1, 2}, {1, 3}, {2, 2}}}
	b := &Table{Vars: []int{1, 2}, Rows: [][]Value{{2, 9}, {3, 8}}}
	j := mustTable(Join(a, b, nil))
	if len(j.Rows) != 3 || len(j.Vars) != 3 {
		t.Fatalf("join = %+v", j)
	}
	s := Semijoin(a, b)
	if len(s.Rows) != 3 {
		t.Fatalf("semijoin kept %d rows, want 3", len(s.Rows))
	}
	b2 := &Table{Vars: []int{1, 2}, Rows: [][]Value{{3, 8}}}
	s2 := Semijoin(a, b2)
	if len(s2.Rows) != 1 || s2.Rows[0][1] != 3 {
		t.Fatalf("semijoin = %+v", s2)
	}
	p := mustTable(Project(a, []int{0}, nil))
	if len(p.Rows) != 2 {
		t.Fatalf("projection should dedupe: %+v", p)
	}
	// Disjoint semijoin: keeps a when b nonempty, empties when b empty.
	d := &Table{Vars: []int{5}, Rows: [][]Value{{1}}}
	if got := Semijoin(a, d); len(got.Rows) != 3 {
		t.Fatal("disjoint semijoin with nonempty b should keep a")
	}
	dEmpty := &Table{Vars: []int{5}}
	if got := Semijoin(a, dEmpty); len(got.Rows) != 0 {
		t.Fatal("disjoint semijoin with empty b should empty a")
	}
}

// randomCSP builds a small random CSP with binary/ternary constraints.
func randomCSP(rng *rand.Rand) *CSP {
	n := 3 + rng.Intn(4)
	d := 2 + rng.Intn(2)
	domain := make([]Value, d)
	for i := range domain {
		domain[i] = i
	}
	c := New(n, domain)
	m := 2 + rng.Intn(4)
	for k := 0; k < m; k++ {
		arity := 2 + rng.Intn(2)
		if arity > n {
			arity = n
		}
		scope := rng.Perm(n)[:arity]
		total := 1
		for i := 0; i < arity; i++ {
			total *= d
		}
		var tuples [][]Value
		for t := 0; t < total; t++ {
			if rng.Intn(3) == 0 {
				continue // drop ~1/3 of tuples
			}
			row := make([]Value, arity)
			x := t
			for i := 0; i < arity; i++ {
				row[i] = x % d
				x /= d
			}
			tuples = append(tuples, row)
		}
		c.AddConstraint(scope, tuples)
	}
	// Normalize: a full-domain unary constraint on every otherwise
	// unconstrained variable, so decomposition bags are always coverable.
	constrained := make([]bool, n)
	for _, con := range c.Constraints {
		for _, v := range con.Scope {
			constrained[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if !constrained[v] {
			var tuples [][]Value
			for _, val := range domain {
				tuples = append(tuples, []Value{val})
			}
			c.AddConstraint([]int{v}, tuples)
		}
	}
	return c
}

// Property: SolveFromTD and SolveFromGHD agree with brute force on
// satisfiability, and their solutions are consistent.
func TestDecompositionSolversMatchBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSP(rng)
		h := c.Hypergraph()
		order := rng.Perm(c.NumVars)
		td := elim.TDFromOrdering(h, order)
		want := c.BruteForce() != nil

		solTD := SolveFromTD(c, td)
		if (solTD != nil) != want {
			return false
		}
		if solTD != nil && !c.Consistent(solTD) {
			return false
		}
		g, err := elim.GHDFromOrdering(h, order, false, rng)
		if err != nil {
			return false
		}
		g.Complete(h)
		solGHD := SolveFromGHD(c, g)
		if (solGHD != nil) != want {
			return false
		}
		return solGHD == nil || c.Consistent(solGHD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: on acyclic random CSPs, SolveAcyclic agrees with brute force.
func TestSolveAcyclicMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSP(rng)
		jt, ok := hypergraph.BuildJoinTree(c.Hypergraph())
		if !ok {
			return true // cyclic: not this solver's job
		}
		want := c.BruteForce() != nil
		sol := SolveAcyclic(c, jt)
		if (sol != nil) != want {
			return false
		}
		return sol == nil || c.Consistent(sol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestConstraintAllows(t *testing.T) {
	c := Constraint{Scope: []int{0, 1}, Tuples: [][]Value{{0, 1}, {1, 0}}}
	if !c.Allows([]Value{0, 1}) || c.Allows([]Value{0, 0}) {
		t.Fatal("Allows wrong")
	}
}

func TestCountSolutionsBrute(t *testing.T) {
	c := New(2, []Value{0, 1})
	c.AddNotEqual(0, 1)
	if got := c.CountSolutionsBrute(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}
