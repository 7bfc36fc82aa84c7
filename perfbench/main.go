// Command perfbench is the repository's end-to-end benchmark: it starts a
// fresh decomposed daemon on loopback for every measured run, drives one of
// three workloads against it from this process, checks every answer, and
// prints every metric by name and unit. With --trace 1 it measures the same
// workload again with client-side spans and replays a sample of its inputs
// through the layers' public functions, and prints per-layer metrics.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload query-warm --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name:{value,unit}}}.
package main

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"
)

const (
	// queryBatch is the number of queries in every /query request.
	queryBatch = 8
	// enumerateLimit is the limit of every enumerate query.
	enumerateLimit = 4
	// setupRepeats is how many daemons a --trace 0 run starts.
	setupRepeats = 7
	// maxFailureLogs caps the failure messages printed per run.
	maxFailureLogs = 5
	// daemonBin and outDir are where run.sh puts the daemon it builds and
	// where runs write their records, relative to the repository root.
	daemonBin = ".bench_build/decomposed"
	outDir    = ".bench_out"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: query-warm | query-churn | decompose")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same request stream")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run, per-layer metrics")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have query-warm, query-churn, decompose)", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	if _, err := os.Stat(daemonBin); err != nil {
		fatal(fmt.Errorf("daemon binary: %w (build it with perfbench/run.sh)", err))
	}
	b := &bench{wl: wl, seed: *seed}
	b.client = &http.Client{Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 8}}
	st := newStamp(wl, *seed, *trace)

	var res *result
	var rec any
	var err error
	dur := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		res, rec, err = b.endToEnd(dur)
	} else {
		res, rec, err = b.traced(dur)
	}
	if err != nil {
		fatal(err)
	}
	if err := writeRecord(outDir, wl.name, *trace, st, res, rec); err != nil {
		fatal(err)
	}
	stampLine, err := json.Marshal(st)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stamp %s\n", stampLine)
	last, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state.
type bench struct {
	wl     *workload
	seed   int64
	client *http.Client
}

// start starts a fresh daemon and runs the workload's warm-up; the returned
// duration is the set-up time (process start to ready, plus warm-up).
func (b *bench) start() (*daemon, time.Duration, error) {
	d, ready, err := startDaemon(daemonBin, b.client)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	if b.wl.warmup != nil {
		if err := b.wl.warmup(b, d); err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("%s warm-up: %w", b.wl.name, err)
		}
	}
	return d, ready + time.Since(t), nil
}

// measure starts a daemon, drives the workload for dur, and stops the
// daemon; a daemon that does not drain cleanly counts as one failure.
func (b *bench) measure(dur time.Duration) (*liveResult, error) {
	d, _, err := b.start()
	if err != nil {
		return nil, err
	}
	return b.drive(d, dur)
}

func (b *bench) drive(d *daemon, dur time.Duration) (*liveResult, error) {
	lr, err := runLive(b, d, b.wl.newStream(b.seed), dur)
	if err != nil {
		d.kill()
		return nil, err
	}
	b.client.CloseIdleConnections()
	if err := d.stop(); err != nil {
		lr.fail(nil, err)
	}
	return lr, nil
}

// endToEnd is a --trace 0 run. It starts setupRepeats daemons: setup_s is
// the median of their set-up times, and the last one is measured. The
// others idle until the measured phase ends; then each is stopped and its
// drain checked like the measured one's.
func (b *bench) endToEnd(dur time.Duration) (*result, any, error) {
	var setups []float64
	var idle []*daemon
	defer func() {
		for _, d := range idle {
			d.kill()
		}
	}()
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		next, took, err := b.start()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if d != nil {
			idle = append(idle, d)
		}
		d = next
	}
	lr, err := b.drive(d, dur)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range idle {
		if err := s.stop(); err != nil {
			lr.fail(nil, fmt.Errorf("set-up daemon: %w", err))
		}
	}
	idle = nil
	lr.report()
	res := endToEndMetrics(lr, median(setups))
	return res, map[string]any{"setup_s": setups, "summary": lr.summary()}, nil
}

// traced is a --trace 1 run: an untraced and a traced measurement of
// dur/2 each on fresh daemons (their difference is the tracing overhead),
// then the in-process replay.
func (b *bench) traced(dur time.Duration) (*result, any, error) {
	half := max(dur/2, time.Second)
	plain, err := b.measure(half)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	live, err := b.measure(half)
	if err != nil {
		return nil, nil, err
	}
	for i, r := range live.records {
		liveSpans(tr, i, r)
	}
	rp, err := replay(b, tr)
	if err != nil {
		return nil, nil, err
	}
	plain.report()
	live.report()
	res := layerMetrics(plain, live, rp)
	printLayerTables(os.Stdout, b.wl, tr, live, rp)
	res.Attempted += len(plain.records)
	res.Failed += plain.failed
	res.Correct = res.Correct && plain.failed == 0
	return res, map[string]any{"spans": tr.spans, "summary": live.summary()}, nil
}

// writeRecord writes the run's stamp, result and details, spans included,
// to dir as <workload>-trace<k>.json.gz, replacing the previous run's.
func writeRecord(dir, name string, trace int, st *stamp, res *result, rec any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-trace%d.json.gz", name, trace))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	err = json.NewEncoder(zw).Encode(map[string]any{"stamp": st, "result": res, "run": rec})
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing run record %s: %w", path, err)
	}
	return nil
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
