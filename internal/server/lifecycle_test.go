package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hypertree/internal/obs"
)

func TestTimingsStampedOnEnvelope(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, resp := postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	tm := resp.Timings
	if tm == nil {
		t.Fatal("no timings block on a served response")
	}
	if tm.Total <= 0 {
		t.Fatalf("timings.total_ns = %v, want > 0", tm.Total)
	}
	if tm.Solve <= 0 {
		t.Fatalf("timings.solve_ns = %v, want > 0 for a solved request", tm.Solve)
	}
	if tm.Solve > tm.Total {
		t.Fatalf("solve %v exceeds total %v", tm.Solve, tm.Total)
	}

	// The cached retry reports its own (fast) serving, not the original
	// solve: the solve phase must be absent.
	_, again := postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	if !again.Cached {
		t.Fatal("retry not served from cache")
	}
	if again.Timings == nil {
		t.Fatal("cached response lost its timings block")
	}
	if again.Timings.Solve != 0 {
		t.Fatalf("cached response claims a %v solve phase", again.Timings.Solve)
	}
	if again.Timings.Total <= 0 {
		t.Fatal("cached response has no total")
	}
}

// TestWaitedMSAlwaysPresent pins the envelope contract: waited_ms appears on
// every response (no omitempty), including rejections.
func TestWaitedMSAlwaysPresent(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range []struct {
		query string
		body  string
	}{
		{"algo=bb-ghw", cycle6HG}, // served
		{"algo=nope", cycle6HG},   // rejected at parse-params
	} {
		hr, err := http.Post(ts.URL+"/decompose?"+tc.query, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]any
		if err := json.NewDecoder(hr.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if _, ok := raw["waited_ms"]; !ok {
			t.Errorf("%s: waited_ms missing from envelope: %v", tc.query, raw)
		}
		if _, ok := raw["timings"]; !ok {
			t.Errorf("%s: timings missing from envelope: %v", tc.query, raw)
		}
	}
}

// TestSpanEventsValidatedTrace drives a request with tracing enabled and
// checks the span events land in the trace — one per reached phase plus
// "total" carrying the outcome — and that the trace still passes
// obs.ValidateTrace.
func TestSpanEventsValidatedTrace(t *testing.T) {
	var buf syncBuffer
	trace := obs.NewJSONLWriter(&buf)
	s := New(Config{Trace: trace})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if hr, _ := postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG)); hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("trace with spans fails validation: %v", err)
	}

	phases := map[string]obs.Event{}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad trace line %s: %v", line, err)
		}
		if e.Kind != obs.KindSpan {
			continue
		}
		if e.Req == "" {
			t.Fatalf("span without request id: %+v", e)
		}
		phases[e.Phase] = e
	}
	for _, want := range []string{"cache", "queue_wait", "parse", "solve", "encode", "total"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("no span for phase %q (got %v)", want, phaseSet(phases))
		}
	}
	if total := phases["total"]; total.Outcome != string(OutcomeExact) {
		t.Errorf("total span outcome = %q, want %q", total.Outcome, OutcomeExact)
	}
	if solve := phases["solve"]; solve.Dur <= 0 {
		t.Errorf("solve span dur = %v, want > 0", solve.Dur)
	}
}

func phaseSet(m map[string]obs.Event) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// syncBuffer is a goroutine-safe bytes.Buffer for trace/access-log sinks.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestDebugRunsMidSolve is the live-introspection acceptance test: while a
// long request is solving, /debug/runs must list it as running with a
// current anytime width.
func TestDebugRunsMidSolve(t *testing.T) {
	s := New(Config{Workers: 1, CheckEvery: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		http.Post(ts.URL+"/decompose?algo=bb-ghw&timeout=3s", "text/plain", bytes.NewReader(grid12HG(t)))
	}()

	type runsPage struct {
		Inflight int         `json:"inflight"`
		Runs     []RunStatus `json:"runs"`
	}
	var seen RunStatus
	waitFor(t, 3*time.Second, func() bool {
		hr, err := http.Get(ts.URL + "/debug/runs")
		if err != nil {
			return false
		}
		defer hr.Body.Close()
		var page runsPage
		if err := json.NewDecoder(hr.Body).Decode(&page); err != nil {
			return false
		}
		// The first improve (the greedy initial incumbent) can precede the
		// first budget checkpoint, so poll until both gauges are live rather
		// than asserting nodes off a sample that raced that window.
		for _, r := range page.Runs {
			if r.State == "running" && r.Width > 0 && r.Nodes > 0 {
				seen = r
				return true
			}
		}
		return false
	})
	if seen.Algo != "bb-ghw" {
		t.Errorf("in-flight run algo = %q, want bb-ghw", seen.Algo)
	}
	<-done

	// Once the request finishes the registry must be empty again.
	waitFor(t, 2*time.Second, func() bool {
		hr, err := http.Get(ts.URL + "/debug/runs")
		if err != nil {
			return false
		}
		defer hr.Body.Close()
		var page runsPage
		if err := json.NewDecoder(hr.Body).Decode(&page); err != nil {
			return false
		}
		return page.Inflight == 0
	})
}

// TestDebugSlowRetainsOutliers checks the slowest-N ring keeps the slow
// request — with its event trace — and /debug/slow orders slowest first.
func TestDebugSlowRetainsOutliers(t *testing.T) {
	s := New(Config{Workers: 2, CheckEvery: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One fast exact request, one slow degraded one.
	postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	hr, slow := postDecompose(t, ts, "algo=bb-ghw&timeout=300ms", grid12HG(t))
	if hr.StatusCode != http.StatusOK || slow.Outcome != OutcomeDegraded {
		t.Fatalf("slow request: status %d outcome %s", hr.StatusCode, slow.Outcome)
	}

	resp, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Retained int        `json:"retained"`
		Runs     []*SlowRun `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Retained < 2 {
		t.Fatalf("retained = %d, want >= 2", page.Retained)
	}
	if page.Runs[0].Req != slow.Req {
		t.Errorf("slowest retained = %s, want the degraded grid run %s", page.Runs[0].Req, slow.Req)
	}
	if len(page.Runs[0].Events) == 0 {
		t.Error("slowest run retained no events — the whole point of the ring")
	}
	if page.Runs[0].Timings == nil || page.Runs[0].Timings.Total <= 0 {
		t.Errorf("slowest run has no timings: %+v", page.Runs[0].Timings)
	}
	for i := 1; i < len(page.Runs); i++ {
		if page.Runs[i].Elapsed > page.Runs[i-1].Elapsed {
			t.Errorf("slow runs not sorted slowest-first at %d", i)
		}
	}
}

// TestSlowRingDisabled pins the negative-SlowN contract: no retention, no
// capture cost, /debug/slow still answers.
func TestSlowRingDisabled(t *testing.T) {
	s := New(Config{SlowN: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	if runs := s.SlowRuns(); runs != nil {
		t.Fatalf("disabled ring retained %d runs", len(runs))
	}
	hr, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var page struct {
		Retained int `json:"retained"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Retained != 0 {
		t.Fatalf("disabled ring reports %d retained", page.Retained)
	}
}

// TestDrainingRejectCarriesRetryAfter covers the 503 parity satellite: both
// draining reject sites must hint a retry, like the 429 path always has.
func TestDrainingRejectCarriesRetryAfter(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	drained := make(chan struct{})
	go func() {
		s.Drain(time.Second)
		close(drained)
	}()
	waitFor(t, 2*time.Second, func() bool { return s.Draining() })

	hr, resp := postDecompose(t, ts, "", []byte(cycle6HG))
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", hr.StatusCode)
	}
	if got := hr.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if resp.RetrySeconds != 1 {
		t.Fatalf("retry_after_s = %d, want 1", resp.RetrySeconds)
	}
	<-drained
}

// TestAccessLog checks the structured one-line-JSON access log: one line
// per finished request, parseable, carrying outcome/status/timings.
func TestAccessLog(t *testing.T) {
	var logBuf syncBuffer
	s := New(Config{AccessLog: &logBuf})
	ts := httptest.NewServer(s)
	defer ts.Close()

	postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	http.Post(ts.URL+"/decompose?algo=nope", "text/plain", strings.NewReader(cycle6HG))

	lines := bytes.Split(bytes.TrimSpace(logBuf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), logBuf.Bytes())
	}
	var first, second map[string]any
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if err := json.Unmarshal(lines[1], &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if first["outcome"] != "exact" || first["status"] != float64(200) {
		t.Errorf("first line outcome/status = %v/%v", first["outcome"], first["status"])
	}
	if first["width"] != float64(2) {
		t.Errorf("first line width = %v, want 2", first["width"])
	}
	if _, ok := first["timings"].(map[string]any); !ok {
		t.Errorf("first line has no timings object: %v", first)
	}
	if second["outcome"] != "rejected" || second["status"] != float64(400) {
		t.Errorf("second line outcome/status = %v/%v", second["outcome"], second["status"])
	}
}

// TestRequestHistogramsPopulated checks /metrics grows the latency families
// after a burst: per-outcome request histograms with cumulative buckets, the
// queue-wait histogram, and P50/P95/P99 summaries.
func TestRequestHistogramsPopulated(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	}
	http.Post(ts.URL+"/decompose?algo=nope", "text/plain", strings.NewReader(cycle6HG))

	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(hr.Body)
	body := out.String()

	for _, want := range []string{
		`hypertree_daemon_request_seconds_bucket{outcome="exact",le="+Inf"}`,
		`hypertree_daemon_request_seconds_count{outcome="exact"}`,
		"# TYPE hypertree_daemon_request_seconds histogram",
		"# TYPE hypertree_daemon_queue_wait_seconds histogram",
		`hypertree_daemon_request_latency_seconds{quantile="0.5"}`,
		`hypertree_daemon_request_latency_seconds{quantile="0.95"}`,
		`hypertree_daemon_request_latency_seconds{quantile="0.99"}`,
		`hypertree_daemon_phase_seconds{phase="solve",quantile="0.95"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The exact-outcome count matches what was served (3 solves; a 4th
	// would be a cache hit — still exact).
	if !strings.Contains(body, `hypertree_daemon_request_seconds_count{outcome="exact"} 3`) {
		t.Errorf("exact request count not 3:\n%s", grepLines(body, "request_seconds_count"))
	}
}

func grepLines(s, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			fmt.Fprintln(&b, line)
		}
	}
	return b.String()
}

// TestEventCaptureKeepsStructure checks the slow-ring capture drops the
// periodic samples of a long run past their cap, counting them, but keeps
// the structural events that follow — the part a single cap loses first.
func TestEventCaptureKeepsStructure(t *testing.T) {
	c := &eventCapture{}
	for i := 0; i < 2*slowSampleCap; i++ {
		c.Record(obs.Event{Kind: obs.KindCheckpoint})
	}
	c.Record(obs.Event{Kind: obs.KindStop})
	c.Record(obs.Event{Kind: obs.KindSpan, Phase: "total"})
	events, dropped := c.take()
	if dropped != slowSampleCap {
		t.Fatalf("dropped = %d, want the %d samples past the cap", dropped, slowSampleCap)
	}
	if len(events) != slowSampleCap+2 || events[len(events)-2].Kind != obs.KindStop || events[len(events)-1].Phase != "total" {
		t.Fatalf("kept %d events ending %+v, want %d samples then the stop and the total span",
			len(events), events[len(events)-1], slowSampleCap)
	}
}
