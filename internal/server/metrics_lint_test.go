package server

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestMetricsOpenMetricsLint is the strict exposition-format gate: it
// fetches the full /metrics output from a live server after a mixed burst
// and parses every line, asserting
//
//   - every sample belongs to a family announced by a # TYPE line, and
//     every family has exactly one # HELP and one # TYPE (HELP before TYPE,
//     both before samples);
//   - sample suffixes match the family type (_bucket/_sum/_count only on
//     histograms, _sum/_count and {quantile} samples only on summaries);
//   - no duplicate series (metric name + full label set);
//   - histogram buckets are cumulative per series (non-decreasing in le
//     order), end in le="+Inf", and the +Inf bucket equals _count.
//
// It runs under -race via the Makefile race target, so it also doubles as a
// concurrency check on the histogram snapshot path.
func TestMetricsOpenMetricsLint(t *testing.T) {
	s := New(Config{Workers: 2, MaxCompileSteps: 100_000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A mixed burst so every family has data: exact solves (concurrent, to
	// exercise queueing), a cache hit, a param rejection, a degraded run;
	// then /query traffic (below) through the same histograms.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
		}()
	}
	wg.Wait()
	postDecompose(t, ts, "algo=bb-ghw", []byte(acyclic4HG))
	http.Post(ts.URL+"/decompose?algo=nope", "text/plain", strings.NewReader(cycle6HG))
	postDecompose(t, ts, "algo=bb-ghw&timeout=50ms", grid12HG(t))
	// /query: a plan-cache miss, a hit, a rejection and a compile tripped
	// by its step budget.
	postQuery(t, ts, "", queryBody(`{"op": "count"}`))
	postQuery(t, ts, "", queryBody(`{"op": "solve"}`))
	postQuery(t, ts, "algo=nope", queryBody(`{"op": "count"}`))
	if hr, resp := postQuery(t, ts, "algo=astar-tw", fmt.Sprintf(`{"csp": %s, "queries": [{"op": "count"}]}`, hugeBagCSPJSON())); hr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("huge-bag /query: status %d (%s), want a tripped compile", hr.StatusCode, resp.Error)
	}

	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()

	type family struct {
		help, typ int // line counts
		kind      string
	}
	families := map[string]*family{}
	seenSeries := map[string]float64{}
	// histogram bucket tracking: series key (name + labels sans le) ->
	// ordered bucket values; counts for the +Inf == _count check.
	buckets := map[string][]float64{}
	lastLE := map[string]float64{}
	infBucket := map[string]float64{}
	histCount := map[string]float64{}

	sc := bufio.NewScanner(hr.Body)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", line, text)
			}
			name := fields[2]
			f := families[name]
			if f == nil {
				f = &family{}
				families[name] = f
			}
			switch fields[1] {
			case "HELP":
				f.help++
				if len(fields) < 4 || fields[3] == "" {
					t.Errorf("line %d: HELP without text for %s", line, name)
				}
			case "TYPE":
				f.typ++
				if f.help == 0 {
					t.Errorf("line %d: TYPE before HELP for %s", line, name)
				}
				f.kind = fields[3]
			}
			continue
		}

		name, labels, value := parseSample(t, line, text)
		base, suffix := splitSuffix(name)
		f := families[base]
		if f == nil || f.kind == "" {
			// The sample may belong to an unsuffixed family (gauge/counter
			// name that happens to end like a suffix).
			f = families[name]
			base, suffix = name, ""
		}
		if f == nil || f.kind == "" {
			t.Errorf("line %d: sample %q precedes or lacks its # TYPE", line, name)
			continue
		}
		switch f.kind {
		case "histogram":
			if suffix != "_bucket" && suffix != "_sum" && suffix != "_count" {
				t.Errorf("line %d: histogram %s has non-histogram sample %q", line, base, name)
			}
		case "summary":
			_, hasQ := labels["quantile"]
			if suffix != "_sum" && suffix != "_count" && !(suffix == "" && hasQ) {
				t.Errorf("line %d: summary %s has non-summary sample %q", line, base, name)
			}
		default: // counter, gauge
			if suffix != "" {
				base, suffix = name, ""
			}
		}

		series := name + "{" + labelKey(labels) + "}"
		if _, dup := seenSeries[series]; dup {
			t.Errorf("line %d: duplicate series %s", line, series)
		}
		seenSeries[series] = value

		if f.kind == "histogram" {
			key := base + "{" + labelKeyExcept(labels, "le") + "}"
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					t.Errorf("line %d: bucket without le label: %s", line, text)
					continue
				}
				bound := parseLE(t, line, le)
				if prev, ok := lastLE[key]; ok && bound <= prev {
					t.Errorf("line %d: bucket bounds not increasing for %s (%g after %g)", line, key, bound, prev)
				}
				lastLE[key] = bound
				if n := len(buckets[key]); n > 0 && value < buckets[key][n-1] {
					t.Errorf("line %d: bucket counts not cumulative for %s", line, key)
				}
				buckets[key] = append(buckets[key], value)
				if le == "+Inf" {
					infBucket[key] = value
				}
			case "_count":
				histCount[key] = value
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for name, f := range families {
		if f.help != 1 || f.typ != 1 {
			t.Errorf("family %s: %d HELP, %d TYPE lines (want exactly 1 each)", name, f.help, f.typ)
		}
	}
	if len(histCount) == 0 {
		t.Fatal("no histogram series found — the burst did not populate the latency families")
	}
	for key, count := range histCount {
		inf, ok := infBucket[key]
		if !ok {
			t.Errorf("histogram series %s has no +Inf bucket", key)
			continue
		}
		if inf != count {
			t.Errorf("histogram series %s: +Inf bucket %g != _count %g", key, inf, count)
		}
	}
	// The exact-outcome histogram must have real observations after the
	// burst (5 exact responses including the cache hit).
	exactKey := `hypertree_daemon_request_seconds{outcome="exact"}`
	if histCount[exactKey] < 5 {
		t.Errorf("exact request histogram count = %g, want >= 5", histCount[exactKey])
	}
	// The /query burst reached its own families: two served requests, two
	// rejections, one plan-cache hit and two misses (the rejected parameter
	// never reaches the cache), two compiles, four latency observations.
	for series, want := range map[string]float64{
		`hypertree_query_requests_total{outcome="exact"}`:    2,
		`hypertree_query_requests_total{outcome="rejected"}`: 2,
		`hypertree_query_plan_cache_hits{}`:                  1,
		`hypertree_query_plan_cache_misses{}`:                2,
		`hypertree_query_request_latency_seconds_count{}`:    4,
		`hypertree_query_compile_seconds_count{}`:            2,
	} {
		if got, ok := seenSeries[series]; !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", series, got, ok, want)
		}
	}
}

// parseSample splits one exposition sample line into name, labels, value.
func parseSample(t *testing.T, line int, text string) (string, map[string]string, float64) {
	t.Helper()
	sp := strings.LastIndex(text, " ")
	if sp < 0 {
		t.Fatalf("line %d: no value in sample %q", line, text)
	}
	value, err := strconv.ParseFloat(text[sp+1:], 64)
	if err != nil {
		t.Fatalf("line %d: bad value in %q: %v", line, text, err)
	}
	metric := text[:sp]
	labels := map[string]string{}
	name := metric
	if i := strings.IndexByte(metric, '{'); i >= 0 {
		if !strings.HasSuffix(metric, "}") {
			t.Fatalf("line %d: unterminated label set %q", line, metric)
		}
		name = metric[:i]
		for _, pair := range strings.Split(metric[i+1:len(metric)-1], ",") {
			if pair == "" {
				continue
			}
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				t.Fatalf("line %d: bad label %q", line, pair)
			}
			v := pair[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: unquoted label value %q", line, pair)
			}
			labels[pair[:eq]] = v[1 : len(v)-1]
		}
	}
	return name, labels, value
}

func splitSuffix(name string) (base, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, s) {
			return strings.TrimSuffix(name, s), s
		}
	}
	return name, ""
}

func parseLE(t *testing.T, line int, le string) float64 {
	t.Helper()
	if le == "+Inf" {
		return float64(1 << 62)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("line %d: bad le %q: %v", line, le, err)
	}
	return v
}

func labelKey(labels map[string]string) string {
	return labelKeyExcept(labels, "")
}

func labelKeyExcept(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}
