package main

import (
	"fmt"
	"math"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile for it to be
// reported: fewer than that and it is one or two outliers, not a tail.
const tailSamples = 10

// percentile returns the nearest-rank p-quantile of sorted and whether at
// least tailSamples samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = min(max(rank, 0), n-1)
	return sorted[rank], n-1-rank >= tailSamples
}

// tailPercentile is the tail latency every workload reports: p90 holds ten
// samples beyond it from 100 requests on, which every workload's run
// reaches; p99 would need 1000, which the decompose workload's runs do not.
const tailPercentile = 0.90

// endToEndMetrics are a --trace 0 run's metrics.
func endToEndMetrics(lr *liveResult, setupS float64) *result {
	ok := lr.okCount()
	lat := lr.latenciesMS()
	p50, _ := percentile(lat, 0.5)
	tail, enough := percentile(lat, tailPercentile)
	if !enough {
		lr.fail(nil, fmt.Errorf("%d requests leave fewer than %d beyond p%g", len(lat), tailSamples, tailPercentile*100))
	}
	var widthSum, exact float64
	for _, r := range lr.records {
		if r.ok {
			widthSum += float64(r.width)
			if r.exact {
				exact++
			}
		}
	}
	answered := float64(max(ok, 1))
	m := map[string]metric{
		"setup_s":               {setupS, "s"},
		"throughput_rps":        {float64(ok) / lr.wall.Seconds(), "req/s"},
		"latency_p50_ms":        {p50, "ms"},
		"latency_p90_ms":        {tail, "ms"},
		"success_share":         {float64(ok) / float64(max(len(lr.records), 1)), "ratio"},
		"daemon_cpu_ms_per_req": {ms(lr.cpu) / answered, "ms"},
		"daemon_rss_mb":         {median(lr.rss) / (1 << 20), "MB"},
		"width_mean":            {widthSum / answered, "width"},
		"exact_share":           {exact / answered, "ratio"},
	}
	return &result{Correct: lr.failed == 0, Attempted: len(lr.records), Failed: lr.failed, Metrics: m}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// portfolioMembers are the default portfolio's members, for the per-member
// metrics.
var portfolioMembers = []string{"greedy", "bb-ghw", "hw-detk", "ga-ghw", "saiga-ghw"}

// layerMetrics are a --trace 1 run's per-layer metrics: live-side numbers
// from the traced phase's responses and /metrics delta, replay numbers from
// the in-process spans, and the tracing overhead against the untraced phase.
// A layer the workload does not exercise reads 0.
func layerMetrics(plain, live *liveResult, rp *replayStats) *result {
	var outside, unphased, queue, cache, parse, encode, solve, acyclicSolve, compile, perQuery []float64
	var rows, maxRows, compiled float64
	rejected := 0
	var nodes, winnerCPU, memberCPU, hits, misses float64
	memberNodes := map[string]float64{}
	wins := map[string]float64{}
	ledgers := 0
	for _, r := range live.records {
		if r.err == nil && r.status >= 400 {
			rejected++
		}
		t := r.timings
		if t == nil {
			continue
		}
		outside = append(outside, us(r.latency()-t.Total))
		phases := t.QueueWait + t.Parse + t.Cache + t.Solve + t.Compile + t.Query + t.Encode
		unphased = append(unphased, us(t.Total-phases))
		queue = append(queue, us(t.QueueWait))
		cache = append(cache, us(t.Cache))
		encode = append(encode, us(t.Encode))
		if t.Parse > 0 {
			parse = append(parse, us(t.Parse))
		}
		if t.Solve > 0 {
			solve = append(solve, ms(t.Solve))
			if r.req.inst.acyclic {
				acyclicSolve = append(acyclicSolve, ms(t.Solve))
			}
		}
		if t.Compile > 0 {
			compile = append(compile, ms(t.Compile))
		}
		if t.Query > 0 && len(r.req.queries) > 0 {
			perQuery = append(perQuery, us(t.Query)/float64(len(r.req.queries)))
		}
		if r.plan != nil && !r.plan.Cached {
			rows += float64(r.plan.Rows)
			maxRows += float64(r.plan.MaxBagRows)
			compiled++
		}
		if l := r.ledger; l != nil {
			ledgers++
			nodes += float64(l.TotalNodes)
			wins[l.Winner]++
			for _, m := range l.Members {
				memberNodes[m.Algo] += float64(m.Nodes)
				memberCPU += float64(m.CPU)
				if m.Algo == l.Winner {
					winnerCPU += float64(m.CPU)
				}
				hits += float64(m.CacheHits)
				misses += float64(m.CacheMisses)
			}
		}
	}
	mk := func(v float64, unit string) metric { return metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cacheRatio := func(prefix string) float64 {
		h := delta(live.before, live.after, prefix+"_hits")
		return ratio(h, h+delta(live.before, live.after, prefix+"_misses"))
	}
	plainP50, _ := percentile(plain.latenciesMS(), 0.5)
	liveP50, _ := percentile(live.latenciesMS(), 0.5)
	m := map[string]metric{
		"http.outside_handler_us":       mk(median(outside), "us"),
		"server.unphased_us":            mk(median(unphased), "us"),
		"server.queue_wait_us":          mk(median(queue), "us"),
		"server.cache_lookup_us":        mk(median(cache), "us"),
		"server.parse_us":               mk(median(parse), "us"),
		"server.encode_us":              mk(median(encode), "us"),
		"server.plan_cache_hit_ratio":   mk(cacheRatio("hypertree_query_plan_cache"), "ratio"),
		"server.plan_cache_evictions":   mk(delta(live.before, live.after, "hypertree_query_plan_cache_evictions"), "count"),
		"server.result_cache_hit_ratio": mk(cacheRatio("hypertree_daemon_result_cache"), "ratio"),
		"server.rejected":               mk(float64(rejected), "count"),
		"core.decompose_ms":             mk(median(solve), "ms"),
		"core.acyclic_decompose_ms":     mk(median(acyclicSolve), "ms"),
		"core.nodes_per_req":            mk(ratio(nodes, float64(ledgers)), "count"),
		"core.nodes_per_cpu_ms":         mk(ratio(nodes, ms(live.cpu)), "count/ms"),
		"core.winner_cpu_share":         mk(ratio(winnerCPU, memberCPU), "ratio"),
		"setcover.cache_hit_ratio":      mk(ratio(hits, hits+misses), "ratio"),
		"setcover.lookups_per_req":      mk(ratio(hits+misses, float64(ledgers)), "count"),
		"engine.compile_ms":             mk(median(compile), "ms"),
		"engine.compile_rows":           mk(ratio(rows, compiled), "count"),
		"engine.max_bag_rows":           mk(ratio(maxRows, compiled), "count"),
		"engine.compile_allocs":         mk(ratio(rp.compileAllocs, rp.compiles), "count"),
		"engine.compile_bytes":          mk(ratio(rp.compileBytes, rp.compiles), "B"),
		"engine.query_us_per_query":     mk(median(perQuery), "us"),
		"engine.solve_us":               mk(median(rp.calls["engine.Cursor.Solve"]), "us"),
		"engine.count_us":               mk(median(rp.calls["engine.Cursor.Count"]), "us"),
		"engine.enumerate_us":           mk(median(rp.calls["engine.Cursor.Enumerate"]), "us"),
		"hypergraph.parse_us":           mk(median(rp.calls["hypergraph.ParseHG"]), "us"),
		"trace.overhead_share":          mk(ratio(liveP50-plainP50, plainP50), "ratio"),
		"process.peak_rss_mb":           mk(float64(live.peakRSS)/(1<<20), "MB"),
	}
	for _, a := range portfolioMembers {
		m["core.member."+a+".node_share"] = mk(ratio(memberNodes[a], nodes), "ratio")
		m["core.member."+a+".win_share"] = mk(ratio(wins[a], float64(ledgers)), "ratio")
	}
	return &result{Correct: live.failed == 0, Attempted: len(live.records), Failed: live.failed, Metrics: m}
}
