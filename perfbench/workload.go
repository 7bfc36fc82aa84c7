package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"hypertree/internal/obs/attr"
	"hypertree/internal/server"
)

// workload is one traffic mix. All three use the daemon's default algorithm
// (the portfolio) with a fixed node budget and a generous timeout, so that
// latency measures the program, not a deadline.
type workload struct {
	name    string
	clients int    // closed-loop clients
	nodes   int64  // per-request nodes=
	path    string // request path and query (decompose adds &seed=)
	decomp  bool   // /decompose rather than /query
	// inline checks answers as they arrive and drops the bodies: query-warm
	// serves too many requests to keep them. The others check after the
	// measured phase so that the oracle's CPU does not compete with the daemon.
	inline    bool
	newStream func(seed int64) stream
	warmup    func(b *bench, d *daemon) error
}

// requestTimeout is every request's timeout=: generous, so that the node
// budget, not the deadline, ends a search.
const requestTimeout = 30 * time.Second

func queryPath(nodes int64) string {
	return fmt.Sprintf("/query?nodes=%d&timeout=%s", nodes, requestTimeout)
}

var workloads = map[string]*workload{}

func init() {
	warm := &workload{
		name:    "query-warm",
		clients: 2,
		nodes:   1_000_000,
		inline:  true,
	}
	warm.path = queryPath(warm.nodes)
	hot := hotSet()
	warm.newStream = func(seed int64) stream {
		return &warmStream{rng: rand.New(rand.NewSource(seed)), hot: hot, path: warm.path}
	}
	warm.warmup = func(b *bench, d *daemon) error { return compileHotSet(b, d, warm.path, hot) }

	churn := &workload{
		name:    "query-churn",
		clients: 1,
		nodes:   5000,
	}
	churn.path = queryPath(churn.nodes)
	churn.newStream = func(seed int64) stream {
		return newChurnStream(seed, churn.path)
	}

	dec := &workload{
		name:    "decompose",
		clients: 1,
		nodes:   5000,
		decomp:  true,
	}
	dec.path = fmt.Sprintf("/decompose?include=tree&nodes=%d&timeout=%s", dec.nodes, requestTimeout)
	dec.newStream = func(seed int64) stream {
		return newDecomposeStream(seed, dec.path)
	}
	for _, w := range []*workload{warm, churn, dec} {
		workloads[w.name] = w
	}
}

// compileHotSet sends every hot instance until the daemon reports its plan
// cached, so that every measured request is a plan-cache hit. A compile the
// portfolio could not prove is served degraded and not cached; the next
// send compiles again.
func compileHotSet(b *bench, d *daemon, path string, hot []*instance) error {
	const tries = 4
	for _, in := range hot {
		var outcomes []server.Outcome
		for len(outcomes) < tries {
			rec := send(b.client, d.base, queryRequest(path, in, []querySpec{{Op: "count"}}))
			if rec.err != nil || rec.status != http.StatusOK {
				return fmt.Errorf("%s: status %d, %v: %s", in.name, rec.status, rec.err, rec.body)
			}
			resp, err := decodeQuery(rec.body)
			if err != nil {
				return err
			}
			if resp.Plan != nil && resp.Plan.Cached {
				break
			}
			outcomes = append(outcomes, resp.Outcome)
		}
		if len(outcomes) == tries {
			return fmt.Errorf("%s: plan still not cached after %d compiles (outcomes %v)", in.name, tries, outcomes)
		}
	}
	return nil
}

// record is one measured request.
type record struct {
	req        *request
	start, end time.Time // send, last response byte
	status     int
	err        error  // transport error
	body       []byte // kept until checked
	ok         bool   // answered and passed the oracle

	// From the decoded response.
	timings *server.Timings
	plan    *server.PlanJSON // /query
	width   int
	exact   bool
	ledger  *attr.Ledger // /decompose
}

func (r *record) latency() time.Duration { return r.end.Sub(r.start) }

func send(client *http.Client, base string, r *request) *record {
	rec := &record{req: r, start: time.Now()}
	resp, err := client.Post(base+r.path, "application/octet-stream", bytes.NewReader(r.body))
	if err != nil {
		rec.end, rec.err = time.Now(), err
		return rec
	}
	rec.body, rec.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end, rec.status = time.Now(), resp.StatusCode
	return rec
}

// liveResult is one measured phase against one daemon.
type liveResult struct {
	records []*record
	wall    time.Duration
	cpu     time.Duration // daemon user+sys over the phase
	peakRSS int64         // daemon VmHWM at the end, bytes
	rss     []float64     // daemon VmRSS sampled every rssEvery, bytes
	before  map[string]float64
	after   map[string]float64
	failed  int
	logs    []string
	steal   float64 // host CPU share stolen by the hypervisor over the phase
}

func (lr *liveResult) fail(r *record, err error) {
	lr.failed++
	if len(lr.logs) < maxFailureLogs {
		what := "run"
		if r != nil {
			what = r.req.path
		}
		lr.logs = append(lr.logs, fmt.Sprintf("%s: %v", what, err))
	}
}

// report prints the phase's failures and how much CPU the host stole: a
// busy host slows every wall-clock metric.
func (lr *liveResult) report() {
	for _, l := range lr.logs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", l)
	}
	fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the measured phase\n", 100*lr.steal)
}

// runLive drives the workload's closed loop against d for dur, then checks
// every answer not checked inline.
func runLive(b *bench, d *daemon, st stream, dur time.Duration) (*liveResult, error) {
	lr := &liveResult{}
	var err error
	if lr.before, err = scrapeMetrics(b.client, d.base); err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostCPU()
	stopRSS := sampleRSS(d, lr)
	var mu sync.Mutex // guards st and lr
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < b.wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				r := st.next()
				mu.Unlock()
				rec := send(b.client, d.base, r)
				var cerr error
				if b.wl.inline {
					cerr = check(rec)
				}
				mu.Lock()
				lr.records = append(lr.records, rec)
				if cerr != nil {
					lr.fail(rec, cerr)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lr.wall = time.Since(t0)
	stopRSS()
	if steal1, total1 := hostCPU(); total1 > total0 {
		lr.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	lr.cpu = cpu1 - cpu0
	if _, lr.peakRSS, err = d.memory(); err != nil {
		return nil, err
	}
	if lr.after, err = scrapeMetrics(b.client, d.base); err != nil {
		return nil, err
	}
	if !b.wl.inline {
		for _, rec := range lr.records {
			if err := check(rec); err != nil {
				lr.fail(rec, err)
			}
		}
	}
	return lr, nil
}

// rssEvery is the daemon memory sampling interval.
const rssEvery = 50 * time.Millisecond

// sampleRSS samples the daemon's VmRSS into lr.rss until the returned stop
// function is called; stop returns once the sampler has exited.
func sampleRSS(d *daemon, lr *liveResult) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if rss, _, err := d.memory(); err == nil {
					lr.rss = append(lr.rss, float64(rss))
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// check decodes and checks one answer, filling the record's decoded fields
// and dropping its body.
func check(rec *record) error {
	defer func() { rec.body = nil }()
	if rec.err != nil {
		return fmt.Errorf("request dropped: %w", rec.err)
	}
	if rec.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.status, firstLine(rec.body))
	}
	if rec.req.inst.cspJSON != nil {
		resp, err := decodeQuery(rec.body)
		if err != nil {
			return err
		}
		rec.timings, rec.plan = resp.Timings, resp.Plan
		if err := checkQuery(rec.req, resp); err != nil {
			return err
		}
		rec.width, rec.exact = resp.Plan.Width, resp.Plan.Exact
	} else {
		resp, err := decodeDecompose(rec.body)
		if err != nil {
			return err
		}
		rec.timings, rec.ledger = resp.Timings, resp.Attribution
		if err := checkDecompose(rec.req, resp); err != nil {
			return err
		}
		rec.width, rec.exact = resp.Width, resp.Exact
	}
	rec.ok = true
	return nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// okCount is the number of correctly answered requests.
func (lr *liveResult) okCount() int {
	n := 0
	for _, r := range lr.records {
		if r.ok {
			n++
		}
	}
	return n
}

// latenciesMS returns every request's client latency in ms, sorted.
func (lr *liveResult) latenciesMS() []float64 {
	out := make([]float64, len(lr.records))
	for i, r := range lr.records {
		out[i] = ms(r.latency())
	}
	sort.Float64s(out)
	return out
}

// summary is the run record's digest of a measured phase.
func (lr *liveResult) summary() map[string]any {
	statuses := map[int]int{}
	for _, r := range lr.records {
		statuses[r.status]++
	}
	return map[string]any{
		"requests": len(lr.records), "ok": lr.okCount(), "failed": lr.failed,
		"wall_s": lr.wall.Seconds(), "daemon_cpu_s": lr.cpu.Seconds(),
		"peak_rss_bytes": lr.peakRSS, "host_steal_share": lr.steal, "statuses": statuses, "failures": lr.logs,
	}
}
