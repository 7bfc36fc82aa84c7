package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/core"
	"hypertree/internal/csp"
	"hypertree/internal/csp/engine"
	"hypertree/internal/hypergraph"
	"hypertree/internal/server"
)

// Spans. The benchmark records them from its own code: one client span per
// live request with the server's phases (from the response's timings block)
// as children, and one span per call in the in-process replay. They stay in
// memory and are written with the run record when the run ends.

type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's start
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{trace, id, parent, name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	return id
}

// Live span names. A request's client span holds the handler span, whose
// length is timings.total_ns, and two residual spans: http.outside_handler
// covers the rest of the client span (net/http, the connection, the
// client's write and read, the response's socket write), server.unphased
// covers the part of the handler no phase covers (body read, envelope
// decode, plan key hash).
const (
	spanRequest  = "http.request"
	spanHandler  = "server.handler"
	spanOutside  = "http.outside_handler"
	spanUnphased = "server.unphased"
)

// livePhases are the server's phases in serving order, named by the module
// that does the work.
var livePhases = []struct {
	name string
	get  func(*server.Timings) time.Duration
}{
	{"server.cache", func(t *server.Timings) time.Duration { return t.Cache }},
	{"server.queue_wait", func(t *server.Timings) time.Duration { return t.QueueWait }},
	{"server.parse", func(t *server.Timings) time.Duration { return t.Parse }},
	{"core.decompose", func(t *server.Timings) time.Duration { return t.Solve }},
	{"engine.compile", func(t *server.Timings) time.Duration { return t.Compile }},
	{"engine.query", func(t *server.Timings) time.Duration { return t.Query }},
	{"server.encode", func(t *server.Timings) time.Duration { return t.Encode }},
}

// liveSpans records request i. The server reports durations, not
// instants, so the handler span is centered in the client span and its
// phases are laid end to end in serving order.
func liveSpans(t *tracer, i int, r *record) {
	tr := fmt.Sprintf("req-%d", i)
	root := t.add(tr, 0, spanRequest, r.start, r.end)
	if r.timings == nil {
		return
	}
	add := func(parent int, name string, start, end time.Time) int {
		if !end.After(start) {
			return 0
		}
		return t.add(tr, parent, name, start, end)
	}
	hs := r.start.Add(max((r.latency()-r.timings.Total)/2, 0))
	he := hs.Add(r.timings.Total)
	add(root, spanOutside, r.start, hs)
	h := add(root, spanHandler, hs, he)
	add(root, spanOutside, he, r.end)
	cur := hs
	for _, p := range livePhases {
		if d := p.get(r.timings); d > 0 {
			add(h, p.name, cur, cur.Add(d))
			cur = cur.Add(d)
		}
	}
	add(h, spanUnphased, cur, he)
}

// selfTimes sums each span name's self time: its duration minus the part of
// it that its children's intervals cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		ch := children[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// replayStats are the replay's call timings and compile allocation counts.
type replayStats struct {
	calls         map[string][]float64 // span name -> per-call µs
	inputs        int
	compiles      float64
	compileAllocs float64
	compileBytes  float64
}

// replaySample is how many generated requests the replay runs.
const replaySample = 16

// replay runs a seeded sample of the workload's generated requests through
// the layers' public functions in this process, one span per call:
// hypergraph.ParseHG, core.Decompose, and for /query requests
// engine.CompileGHDBudget (or CompileBudget), Plan.NewCursor and the batch's
// Cursor.Solve/Count/Enumerate calls.
func replay(b *bench, t *tracer) (*replayStats, error) {
	st := b.wl.newStream(b.seed)
	pick := rand.New(rand.NewSource(b.seed))
	var sample []*request
	for i := 0; len(sample) < replaySample; i++ {
		r := st.next()
		if pick.Intn(4) == 0 || i >= 4*replaySample {
			sample = append(sample, r)
		}
	}
	rs := &replayStats{calls: map[string][]float64{}}
	for i, r := range sample {
		if err := replayOne(b.wl, t, fmt.Sprintf("replay-%d", i), r, rs); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", r.inst.name, err)
		}
		rs.inputs++
	}
	return rs, nil
}

func replayOne(wl *workload, t *tracer, tr string, r *request, rs *replayStats) error {
	start := time.Now()
	var spans []span
	timed := func(name string, f func() error) error {
		s := time.Now()
		err := f()
		e := time.Now()
		rs.calls[name] = append(rs.calls[name], us(e.Sub(s)))
		spans = append(spans, span{Name: name, Start: int64(s.Sub(t.t0)), End: int64(e.Sub(t.t0))})
		return err
	}
	var h *hypergraph.Hypergraph
	if err := timed("hypergraph.ParseHG", func() (err error) {
		h, err = hypergraph.ParseHG(bytes.NewReader(r.inst.hg))
		return err
	}); err != nil {
		return err
	}
	var c *csp.CSP
	if r.inst.cspJSON != nil {
		// The daemon decomposes the CSP's constraint hypergraph.
		var err error
		if c, err = r.inst.toCSP(); err != nil {
			return err
		}
		h = c.Hypergraph()
	}
	seed := r.seed
	if seed == 0 {
		seed = 1 // the daemon's default seed
	}
	var d *core.Decomposition
	if err := timed("core.Decompose", func() (err error) {
		d, err = core.Decompose(h, core.Options{Algorithm: core.AlgPortfolio, Timeout: requestTimeout, MaxNodes: wl.nodes, Seed: seed})
		return err
	}); err != nil {
		return err
	}
	if c != nil {
		var plan *engine.Plan
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := timed("engine.Compile", func() (err error) {
			bu := budget.New(context.Background(), budget.Limits{Timeout: requestTimeout, MaxNodes: server.DefaultMaxCompileSteps})
			if d.GHD != nil {
				if !d.GHD.IsComplete(h) {
					d.GHD.Complete(h)
				}
				plan, err = engine.CompileGHDBudget(c, d.GHD, bu)
			} else {
				plan, err = engine.CompileBudget(c, d.TD, bu)
			}
			return err
		}); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		rs.compiles++
		rs.compileAllocs += float64(m1.Mallocs - m0.Mallocs)
		rs.compileBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		var cu *engine.Cursor
		_ = timed("engine.Plan.NewCursor", func() error { cu = plan.NewCursor(); return nil })
		for _, q := range r.queries {
			pins, err := pinsOf(q.Assign)
			if err != nil {
				return err
			}
			switch q.Op {
			case "solve":
				_ = timed("engine.Cursor.Solve", func() error { cu.Solve(pins); return nil })
			case "count":
				_ = timed("engine.Cursor.Count", func() error { cu.CountExact(pins); return nil })
			case "enumerate":
				_ = timed("engine.Cursor.Enumerate", func() error { cu.Enumerate(q.Limit, pins); return nil })
			}
		}
	}
	root := t.add(tr, 0, "replay", start, time.Now())
	for _, s := range spans {
		t.add(tr, root, s.Name, t.t0.Add(time.Duration(s.Start)), t.t0.Add(time.Duration(s.End)))
	}
	return nil
}

// printLayerTables prints the traced run's self-time tables: the live side
// per request (its layers sum to the client-side mean latency) and the
// replay per input.
func printLayerTables(w io.Writer, wl *workload, t *tracer, live *liveResult, rp *replayStats) {
	var liveSpans, replaySpans []span
	for _, s := range t.spans {
		if len(s.Trace) > 4 && s.Trace[:4] == "req-" {
			liveSpans = append(liveSpans, s)
		} else {
			replaySpans = append(replaySpans, s)
		}
	}
	n := float64(max(len(live.records), 1))
	var clientSum time.Duration
	for _, r := range live.records {
		clientSum += r.latency()
	}
	self := selfTimes(liveSpans)
	fmt.Fprintf(w, "%s: live layers, self time per request (%d requests)\n", wl.name, len(live.records))
	fmt.Fprintf(w, "  %-26s %12s %8s\n", "layer", "self_us", "share")
	names := []string{spanOutside, spanUnphased}
	for _, p := range livePhases {
		names = append(names, p.name)
	}
	names = append(names, spanRequest, spanHandler) // self time ~0: their residuals are spans
	var sum time.Duration
	for _, name := range names {
		sum += self[name]
		fmt.Fprintf(w, "  %-26s %12.1f %7.1f%%\n", name, us(self[name])/n, 100*float64(self[name])/float64(max(clientSum, 1)))
	}
	gap := 100 * (float64(sum) - float64(clientSum)) / float64(max(clientSum, 1))
	fmt.Fprintf(w, "  layers sum to %.1f us/request; client mean latency %.1f us (%+.2f%%)\n", us(sum)/n, us(clientSum)/n, gap)

	rself := selfTimes(replaySpans)
	ri := float64(max(rp.inputs, 1))
	fmt.Fprintf(w, "%s: replay layers, self time per input (%d inputs)\n", wl.name, rp.inputs)
	fmt.Fprintf(w, "  %-26s %12s %8s\n", "layer", "self_us", "calls")
	rnames := make([]string, 0, len(rself))
	for name := range rself {
		rnames = append(rnames, name)
	}
	sort.Strings(rnames)
	for _, name := range rnames {
		calls := len(rp.calls[name])
		if name == "replay" {
			calls = rp.inputs
		}
		fmt.Fprintf(w, "  %-26s %12.1f %8d\n", name, us(rself[name])/ri, calls)
	}
}
