package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/hypergraph"
	"hypertree/internal/server"
)

// streamBytes renders a workload's first n requests as the daemon sees them.
func streamBytes(wl *workload, seed int64, n int) []byte {
	st := wl.newStream(seed)
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		r := st.next()
		b.WriteString(r.path)
		b.WriteByte('\n')
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	for name, wl := range workloads {
		a, b := streamBytes(wl, 7, 60), streamBytes(wl, 7, 60)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if bytes.Equal(a, streamBytes(wl, 8, 60)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestTailRuleNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{99, 0.90, false},
		{100, 0.90, true},
		{5, 0.5, false},
	} {
		v, ok := percentile(sorted(c.n), c.p)
		beyond := 0
		for _, x := range sorted(c.n) {
			if x > v {
				beyond++
			}
		}
		if ok != (beyond >= tailSamples) || ok != c.want {
			t.Errorf("n=%d p=%g: value %g with %d beyond, reported ok=%v, want %v", c.n, c.p, v, beyond, ok, c.want)
		}
	}
}

// answer builds the correct /query response for r from the oracle itself.
func answer(t *testing.T, r *request) *server.QueryResponse {
	t.Helper()
	resp := &server.QueryResponse{Outcome: server.OutcomeExact, Plan: &server.PlanJSON{}, Timings: &server.Timings{}}
	err := r.inst.withReference(func(ref *reference) error {
		resp.Plan.Satisfiable = ref.plan.Stats().Satisfiable
		for _, q := range r.queries {
			pins, err := pinsOf(q.Assign)
			if err != nil {
				return err
			}
			res := server.QueryResult{Op: q.Op}
			switch q.Op {
			case "solve":
				sol, ok := ref.cu.Solve(pins)
				res.Sat = &ok
				res.Assignment = append([]int(nil), sol...)
			case "count":
				n, exact := ref.cu.CountExact(pins)
				res.Count, res.CountOverflow = &n, !exact
			case "enumerate":
				res.Solutions = ref.cu.Enumerate(q.Limit, pins)
			}
			resp.Results = append(resp.Results, res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestOracleRejectsPlantedWrongAnswers(t *testing.T) {
	in := newInstance("grid2d_4", hypergraph.Grid2D(4), true)
	e := in.h.Edge(0)
	r := queryRequest("/query", in, []querySpec{
		{Op: "count", Assign: pin(e[0], 1)},
		{Op: "solve", Assign: pin(e[0], 1)},
		{Op: "solve", Assign: pin(e[0], 1, e[1], 1)}, // unsatisfiable
		{Op: "enumerate", Assign: pin(e[1], 0), Limit: enumerateLimit},
	})
	if err := checkQuery(r, answer(t, r)); err != nil {
		t.Fatalf("oracle rejects the correct answer: %v", err)
	}
	if sat := answer(t, r).Results[2].Sat; *sat {
		t.Fatal("pinning two variables of one scope to 1 should be unsatisfiable")
	}

	wrongCount := answer(t, r)
	*wrongCount.Results[0].Count++
	if err := checkQuery(r, wrongCount); err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("planted wrong count passed: %v", err)
	}
	wrongUnsat := answer(t, r)
	no := false
	wrongUnsat.Results[1].Sat, wrongUnsat.Results[1].Assignment = &no, nil
	if err := checkQuery(r, wrongUnsat); err == nil || !strings.Contains(err.Error(), "unsat") {
		t.Errorf("planted wrong unsat passed: %v", err)
	}
	wrongSat := answer(t, r)
	yes := true
	wrongSat.Results[2].Sat, wrongSat.Results[2].Assignment = &yes, make([]int, in.h.N())
	if err := checkQuery(r, wrongSat); err == nil {
		t.Error("planted wrong sat passed")
	}
}

func TestOracleRejectsInvalidGHD(t *testing.T) {
	st := newDecomposeStream(3, "/decompose?include=tree")
	r := st.next()
	h, err := hypergraph.ParseHG(bytes.NewReader(r.body))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Decompose(h, core.Options{Algorithm: core.AlgGreedy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tree := &server.TreeJSON{Parent: d.GHD.Parent, Root: d.GHD.Root, Width: d.GHD.Width()}
	for i, bag := range d.GHD.Bags {
		var names, edges []string
		for _, v := range bag {
			names = append(names, h.VertexName(v))
		}
		for _, e := range d.GHD.Lambdas[i] {
			edges = append(edges, h.EdgeName(e))
		}
		tree.Bags = append(tree.Bags, names)
		tree.Lambdas = append(tree.Lambdas, edges)
	}
	resp := func() *server.Response {
		raw, err := json.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		var cp server.TreeJSON
		if err := json.Unmarshal(raw, &cp); err != nil {
			t.Fatal(err)
		}
		return &server.Response{
			Outcome: server.OutcomeUpperBound, Width: d.Width, LowerBound: d.LowerBound,
			Timings: &server.Timings{}, Attribution: d.Ledger, Tree: &cp,
		}
	}
	if err := checkDecompose(r, resp()); err != nil {
		t.Fatalf("oracle rejects a valid GHD: %v", err)
	}
	dropped := resp()
	for i, lam := range dropped.Tree.Lambdas {
		if len(lam) > 0 {
			dropped.Tree.Lambdas[i] = lam[:len(lam)-1] // a bag vertex loses its cover
			break
		}
	}
	if err := checkDecompose(r, dropped); err == nil {
		t.Error("GHD with an uncovered bag vertex passed")
	}
	missing := resp()
	missing.Tree.Bags[0] = missing.Tree.Bags[0][:0]
	missing.Tree.Lambdas[0] = nil
	if err := checkDecompose(r, missing); err == nil {
		t.Error("GHD with an emptied bag passed")
	}
	low := resp()
	low.LowerBound = low.Width + 1
	if err := checkDecompose(r, low); err == nil {
		t.Error("width below the lower bound passed")
	}
}

func TestChurnSharesMatchTheStatedMix(t *testing.T) {
	st := newChurnStream(5, "/query")
	const n = 4000
	repeats, acyclicShape, unsat := 0, 0, 0
	for i := 0; i < n; i++ {
		r := st.next()
		if r.repeat {
			repeats++
			continue
		}
		if strings.HasSuffix(r.inst.name, "-acyclic") {
			acyclicShape++
			if !r.inst.acyclic {
				t.Fatalf("%s is not α-acyclic", r.inst.name)
			}
		}
		if i < 200 {
			resp := answer(t, r)
			for _, res := range resp.Results {
				if !*res.Sat {
					unsat++
				}
			}
		}
	}
	if share := float64(repeats) / n; share < 0.24 || share > 0.26 {
		t.Errorf("repeat share %.3f, want 1/4", share)
	}
	if share := float64(acyclicShape) / float64(n-repeats); share < 0.24 || share > 0.26 {
		t.Errorf("acyclic share of new CSPs %.3f, want 1/4", share)
	}
	if unsat == 0 {
		t.Error("no unsatisfiable pinned query in the first 200 requests")
	}
}

func TestHotSetIsExactlyCountable(t *testing.T) {
	hot := hotSet()
	if len(hot) != 16 {
		t.Fatalf("hot set has %d instances, want 16", len(hot))
	}
	for _, in := range hot {
		err := in.withReference(func(ref *reference) error {
			if _, exact := ref.cu.CountExact(nil); !exact {
				t.Errorf("%s: solution count saturates", in.name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkJSONListsThePrintedMetrics keeps BENCHMARK.json and the
// printed metrics in step: the same names with the same units, end-to-end
// metrics at --trace 0 and per-layer metrics at --trace 1.
func TestBenchmarkJSONListsThePrintedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	lr := &liveResult{wall: time.Second, records: []*record{{req: &request{inst: &instance{}}, ok: true}}}
	same := func(what string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(listed), len(printed))
		}
		for _, m := range listed {
			if got, ok := printed[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: %s [%s] is listed but printed as %+v (present %v)", what, m.Name, m.Unit, got, ok)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics(lr, 1).Metrics)
	same("per_layer", spec.PerLayer, layerMetrics(lr, lr, &replayStats{}).Metrics)
}
