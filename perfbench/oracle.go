package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"hypertree/internal/core"
	"hypertree/internal/csp"
	"hypertree/internal/csp/engine"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/server"
)

// The answer oracle. Solve assignments are checked against the constraints
// and pins directly. Unsatisfiable verdicts and counts are checked against
// an engine plan the benchmark compiles itself over a greedy decomposition —
// a different decomposition from the daemon's portfolio one, so a wrong
// answer has to be wrong twice in the same way to pass. /decompose trees are
// rebuilt from their names and validated against the sent hypergraph.

// reference is an instance's in-process oracle plan. Its cursor is guarded
// by the instance's mutex: two clients may check answers for one instance.
type reference struct {
	c    *csp.CSP
	plan *engine.Plan
	cu   *engine.Cursor
	memo map[string]refCount // canonical pins -> answer
}

// refCount is the oracle's solution count under some pins; exact is false
// when the count saturated.
type refCount struct {
	n     int
	exact bool
}

// count answers a pinned count from the memo, so that the hot set's
// repeated queries cost the oracle a map lookup.
func (ref *reference) count(pins []engine.Pin) refCount {
	slices.SortFunc(pins, func(a, b engine.Pin) int {
		if a.Var != b.Var {
			return cmp.Compare(a.Var, b.Var)
		}
		return cmp.Compare(a.Val, b.Val)
	})
	key := fmt.Sprint(pins)
	if a, ok := ref.memo[key]; ok {
		return a
	}
	n, exact := ref.cu.CountExact(pins)
	ref.memo[key] = refCount{n, exact}
	return ref.memo[key]
}

// withReference runs f on the instance's oracle plan, building the plan on
// first use. The instance's mutex serializes f: the plan's cursor is not
// safe for concurrent use.
func (in *instance) withReference(f func(*reference) error) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.ref == nil {
		c, err := in.toCSP()
		if err != nil {
			return err
		}
		d, err := core.Decompose(c.Hypergraph(), core.Options{Algorithm: core.AlgGreedy, Seed: 1})
		if err != nil {
			return fmt.Errorf("oracle decomposition of %s: %w", in.name, err)
		}
		plan, err := engine.Compile(c, d.TD)
		if err != nil {
			return fmt.Errorf("oracle plan of %s: %w", in.name, err)
		}
		in.ref = &reference{c: c, plan: plan, cu: plan.NewCursor(), memo: map[string]refCount{}}
	}
	return f(in.ref)
}

// pinsOf converts a wire assign block (decimal indexes) to engine pins.
func pinsOf(assign map[string]int) ([]engine.Pin, error) {
	pins := make([]engine.Pin, 0, len(assign))
	for k, v := range assign {
		i, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("pin key %q is not an index", k)
		}
		pins = append(pins, engine.Pin{Var: i, Val: v})
	}
	return pins, nil
}

// satisfies reports whether a is a full assignment within the domains that
// meets every constraint and every pin.
func satisfies(c *csp.CSP, a []int, pins []engine.Pin) error {
	if len(a) != c.NumVars {
		return fmt.Errorf("assignment has %d values for %d variables", len(a), c.NumVars)
	}
	for v, x := range a {
		in := false
		for _, d := range c.Domains[v] {
			if d == x {
				in = true
				break
			}
		}
		if !in {
			return fmt.Errorf("variable %d = %d is outside its domain", v, x)
		}
	}
	if !c.Consistent(a) {
		return fmt.Errorf("assignment violates a constraint")
	}
	for _, p := range pins {
		if a[p.Var] != p.Val {
			return fmt.Errorf("assignment sets pinned variable %d to %d, pin says %d", p.Var, a[p.Var], p.Val)
		}
	}
	return nil
}

// checkQuery checks a decoded /query response against the request.
func checkQuery(r *request, resp *server.QueryResponse) error {
	switch resp.Outcome {
	case server.OutcomeExact, server.OutcomeUpperBound, server.OutcomeDegraded:
	default:
		return fmt.Errorf("outcome %q: %s", resp.Outcome, resp.Error)
	}
	if resp.Plan == nil || resp.Timings == nil {
		return fmt.Errorf("response lacks its plan or timings block")
	}
	if len(resp.Results) != len(r.queries) {
		return fmt.Errorf("%d results for %d queries", len(resp.Results), len(r.queries))
	}
	return r.inst.withReference(func(ref *reference) error {
		if want := ref.plan.Stats().Satisfiable; resp.Plan.Satisfiable != want {
			return fmt.Errorf("plan.satisfiable = %v, oracle says %v", resp.Plan.Satisfiable, want)
		}
		for i, q := range r.queries {
			if err := checkResult(ref, q, &resp.Results[i]); err != nil {
				return fmt.Errorf("query %d (%s %v): %w", i, q.Op, q.Assign, err)
			}
		}
		return nil
	})
}

func checkResult(ref *reference, q querySpec, res *server.QueryResult) error {
	if res.Error != "" {
		return fmt.Errorf("query error: %s", res.Error)
	}
	if res.Op != q.Op {
		return fmt.Errorf("answered op %q", res.Op)
	}
	pins, err := pinsOf(q.Assign)
	if err != nil {
		return err
	}
	switch q.Op {
	case "solve":
		if res.Sat == nil {
			return fmt.Errorf("solve answer lacks sat")
		}
		if *res.Sat {
			return satisfies(ref.c, res.Assignment, pins)
		}
		if ref.count(pins).n > 0 {
			return fmt.Errorf("answered unsat, oracle finds a solution")
		}
	case "count":
		// A saturated count must be saturated on both sides.
		want := ref.count(pins)
		if res.Count == nil || res.CountOverflow == want.exact || *res.Count != want.n {
			got := "none"
			if res.Count != nil {
				got = strconv.Itoa(*res.Count)
			}
			return fmt.Errorf("count %s, oracle says %d", got, want.n)
		}
	case "enumerate":
		want := min(ref.count(pins).n, q.Limit)
		if len(res.Solutions) != want || res.Truncated {
			return fmt.Errorf("%d solutions, want %d", len(res.Solutions), want)
		}
		seen := make(map[string]bool, len(res.Solutions))
		for _, sol := range res.Solutions {
			if err := satisfies(ref.c, sol, pins); err != nil {
				return err
			}
			k := fmt.Sprint(sol)
			if seen[k] {
				return fmt.Errorf("solution %v repeats", sol)
			}
			seen[k] = true
		}
	default:
		return fmt.Errorf("unknown op %q", q.Op)
	}
	return nil
}

// checkDecompose checks a decoded /decompose response: a typed width-bearing
// outcome, a tree that is a valid GHD of the sent hypergraph with the
// reported width, and width >= lower bound (equal when exact).
func checkDecompose(r *request, resp *server.Response) error {
	switch resp.Outcome {
	case server.OutcomeExact, server.OutcomeUpperBound, server.OutcomeDegraded:
	default:
		return fmt.Errorf("outcome %q: %s", resp.Outcome, resp.Error)
	}
	if resp.Timings == nil || resp.Attribution == nil {
		return fmt.Errorf("response lacks its timings or attribution block")
	}
	if resp.Width < resp.LowerBound || resp.LowerBound < 1 {
		return fmt.Errorf("width %d against lower bound %d", resp.Width, resp.LowerBound)
	}
	if resp.Exact && resp.Width != resp.LowerBound {
		return fmt.Errorf("exact width %d above its lower bound %d", resp.Width, resp.LowerBound)
	}
	if resp.Tree == nil {
		return fmt.Errorf("include=tree response has no tree")
	}
	h, err := hypergraph.ParseHG(bytes.NewReader(r.body))
	if err != nil {
		return fmt.Errorf("reparsing the sent hypergraph: %w", err)
	}
	g, err := ghdFromTree(h, resp.Tree)
	if err != nil {
		return err
	}
	if err := g.Validate(h); err != nil {
		return fmt.Errorf("returned tree is not a GHD: %w", err)
	}
	if g.Width() != resp.Width || resp.Tree.Width != resp.Width {
		return fmt.Errorf("tree width %d (claimed %d), response width %d", g.Width(), resp.Tree.Width, resp.Width)
	}
	return nil
}

// ghdFromTree maps a wire tree's vertex and edge names back to h's indexes.
func ghdFromTree(h *hypergraph.Hypergraph, t *server.TreeJSON) (*decomp.GHD, error) {
	vid := make(map[string]int, h.N())
	for v := 0; v < h.N(); v++ {
		vid[h.VertexName(v)] = v
	}
	eid := make(map[string]int, h.M())
	for e := 0; e < h.M(); e++ {
		eid[h.EdgeName(e)] = e
	}
	if len(t.Lambdas) != len(t.Bags) {
		return nil, fmt.Errorf("tree has %d λ-sets for %d bags", len(t.Lambdas), len(t.Bags))
	}
	g := &decomp.GHD{
		TreeDecomposition: decomp.TreeDecomposition{
			Tree: decomp.Tree{Parent: t.Parent, Root: t.Root},
			Bags: make([][]int, len(t.Bags)),
		},
		Lambdas: make([][]int, len(t.Lambdas)),
	}
	for i, bag := range t.Bags {
		for _, name := range bag {
			v, ok := vid[name]
			if !ok {
				return nil, fmt.Errorf("bag %d names unknown vertex %q", i, name)
			}
			g.Bags[i] = append(g.Bags[i], v)
		}
		slices.Sort(g.Bags[i])
	}
	for i, lam := range t.Lambdas {
		for _, name := range lam {
			e, ok := eid[name]
			if !ok {
				return nil, fmt.Errorf("λ-set %d names unknown edge %q", i, name)
			}
			g.Lambdas[i] = append(g.Lambdas[i], e)
		}
	}
	return g, nil
}

// decodeQuery and decodeDecompose decode a 200 body into its envelope.
func decodeQuery(body []byte) (*server.QueryResponse, error) {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding /query response: %w", err)
	}
	return &resp, nil
}

func decodeDecompose(body []byte) (*server.Response, error) {
	var resp server.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding /decompose response: %w", err)
	}
	return &resp, nil
}
