package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/budget/faultinject"
	"hypertree/internal/core"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/obs/attr"
	"hypertree/internal/obs/hist"
)

// The request pipeline both POST endpoints run through. Intake, admission,
// the lifecycle and the typed exits exist once, here; an endpoint supplies
// only its own work as a job. /decompose parses a hypergraph and solves it;
// /query decodes an envelope, then compiles a plan or takes one from the
// cache, then runs the batch.

// job is one request's endpoint-specific work.
type job interface {
	// prepare runs before admission, on the capped body: decode it and
	// consult the endpoint's cache. A non-nil reply ends the request there —
	// a rejection, or a cache hit served without a worker slot.
	prepare(rq *request, body []byte) *reply
	// run does the work inside a worker slot.
	run(rq *request) *reply
	// fail builds the endpoint's envelope for a request that was rejected
	// or failed.
	fail(o Outcome, req, msg string, retrySeconds int) envelope
}

// envelope is an endpoint's typed JSON answer, as the finish path sees it.
type envelope interface {
	// stamp sets the lifecycle fields every envelope carries.
	stamp(tm *Timings, waitedMS int64)
	// summary fills the endpoint's fields of the access-log line: outcome,
	// instance size, width, cache state and error.
	summary() accessRecord
}

// reply is a request's answer on its way to the finish path.
type reply struct {
	status int
	env    envelope
	// retrySeconds, when positive, is sent as Retry-After.
	retrySeconds int
	// ledger accounts the solver work this request ran, for the member
	// metrics; nil when no solver ran (cache hits, most rejections).
	ledger *attr.Ledger
	// stream, when set, carries the answer as the final SSE frame.
	stream *sseWriter
}

// tally is one endpoint's outcome-counter bank, plus the latency histogram
// of its own latency family when it has one.
type tally struct {
	outcomes [len(outcomes)]atomic.Int64
	latency  *hist.Histogram
}

func (t *tally) count(o Outcome) {
	if i := slices.Index(outcomes[:], o); i >= 0 {
		t.outcomes[i].Add(1)
	}
}

// request is one request's state on its way through the pipeline.
type request struct {
	s     *Server
	w     http.ResponseWriter
	r     *http.Request
	id    string
	lc    *lifecycle
	tally *tally
	job   job
	p     reqParams
	// ri is the request's /debug/runs entry, set at admission.
	ri *runInfo
}

// serve runs one request of an endpoint through the pipeline: intake
// (draining check, parameters, capped body, the job's prepare), admission,
// the job's run inside a worker slot, and the finish path.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, t *tally, j job) {
	id := fmt.Sprintf("r%06d", s.reqSeq.Add(1))
	w.Header().Set("X-Request-ID", id)
	rq := &request{s: s, w: w, r: r, id: id, lc: s.newLifecycle(id, r.RemoteAddr), tally: t, job: j}

	// Count the request for drain before checking the flag: a request is
	// either rejected-by-draining or fully waited for — never silently
	// abandoned between the two.
	s.wg.Add(1)
	defer s.wg.Done()
	if rp := s.intake(rq); rp != nil {
		s.finish(rq, rp)
		return
	}
	s.admit(rq)
}

func (s *Server) intake(rq *request) *reply {
	if s.draining.Load() {
		return rq.reject(http.StatusServiceUnavailable, "draining: not admitting new requests", drainingRetrySeconds)
	}
	p, err := s.parseParams(rq.r)
	if err != nil {
		return rq.reject(http.StatusBadRequest, err.Error(), 0)
	}
	rq.p = p
	rq.lc.algo = string(p.algo)

	// The body is read (capped) before admission: cheap, and the endpoint's
	// cache is keyed by its content.
	body, err := io.ReadAll(hypergraph.LimitReader(rq.r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var tooBig *hypergraph.PayloadTooLargeError
		if errors.As(err, &tooBig) {
			return rq.reject(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("payload exceeds %d-byte limit", tooBig.Limit), 0)
		}
		return rq.reject(http.StatusBadRequest, fmt.Sprintf("reading body: %v", err), 0)
	}
	return rq.job.prepare(rq, body)
}

// admit bounds the request by Workers+QueueDepth (beyond it, 429 with
// backpressure), waits for a worker slot, and holds the slot through the
// job's run and the finish path.
func (s *Server) admit(rq *request) {
	if s.pending.Add(1) > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.pending.Add(-1)
		s.finish(rq, rq.reject(http.StatusTooManyRequests, "saturated: worker pool and queue full", saturatedRetrySeconds))
		return
	}
	defer s.pending.Add(-1)

	// Admitted: visible in /debug/runs from here (state "queued") until the
	// response is written.
	rq.ri = &runInfo{id: rq.id, algo: string(rq.p.algo), start: time.Now()}
	s.registry.add(rq.ri)
	defer s.registry.remove(rq.id)

	qstart := time.Now()
	var queued *reply
	select {
	case s.sem <- struct{}{}:
	case <-rq.r.Context().Done():
		queued = rq.reject(statusClientClosedRequest, "client canceled while queued", 0)
	case <-s.baseCtx.Done():
		queued = rq.reject(http.StatusServiceUnavailable, "draining: canceled while queued", drainingRetrySeconds)
	}
	wait := time.Since(qstart)
	rq.lc.phase(phaseQueueWait, wait)
	if queued != nil {
		s.finish(rq, queued)
		return
	}
	defer func() { <-s.sem }()
	rq.ri.waitNS.Store(int64(wait))
	rq.ri.running.Store(true)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	faultinject.Hit(faultinject.SiteServerHandle)
	s.finish(rq, rq.job.run(rq))
}

// finish is the one exit of every request: it closes the lifecycle (timings
// block, waited_ms, latency histograms), bumps the endpoint's outcome
// counter, folds the attribution ledger into the member metrics, offers the
// request to the slow ring, writes the access-log line, then the answer.
func (s *Server) finish(rq *request, rp *reply) {
	lc := rq.lc
	rec := rp.env.summary()
	tm := lc.finish(rec.Outcome)
	waited := lc.waitedMS()
	rp.env.stamp(tm, waited)
	rq.tally.count(rec.Outcome)
	if rq.tally.latency != nil {
		rq.tally.latency.Observe(tm.Total)
	}
	s.recordAttribution(rp.ledger)

	rec.Req, rec.Remote, rec.Status, rec.Algo = rq.id, lc.remote, rp.status, lc.algo
	rec.Stream = rp.stream != nil
	rec.WaitedMS, rec.ElapsedMS, rec.Timings = waited, tm.Total.Milliseconds(), tm
	if rp.ledger != nil {
		rec.Winner = rp.ledger.Winner
	}
	s.offerSlow(lc, &rec)
	s.logAccess(&rec)

	if rp.stream != nil {
		rp.stream.finish(rp.env)
		return
	}
	if rp.retrySeconds > 0 {
		rq.w.Header().Set("Retry-After", strconv.Itoa(rp.retrySeconds))
	}
	s.writeJSON(rq.w, rp.status, rp.env)
}

// offerSlow hands a finished request, with its captured event trace, to the
// slowest-N ring.
func (s *Server) offerSlow(lc *lifecycle, rec *accessRecord) {
	if s.slow == nil {
		return
	}
	run := &SlowRun{
		Req:       rec.Req,
		Algo:      rec.Algo,
		Outcome:   rec.Outcome,
		Width:     rec.Width,
		Stop:      rec.Stop,
		Start:     lc.start,
		Elapsed:   rec.Timings.Total,
		QueueWait: lc.phases[phaseQueueWait],
		Timings:   rec.Timings,
	}
	run.Events, run.DroppedEvents = lc.capture.take()
	s.slow.offer(run)
}

// reject answers a request that will not run, with backpressure hints when
// retrySeconds is positive.
func (rq *request) reject(status int, msg string, retrySeconds int) *reply {
	return &reply{
		status:       status,
		env:          rq.job.fail(OutcomeRejected, rq.id, msg, retrySeconds),
		retrySeconds: retrySeconds,
	}
}

// failed answers an admitted request whose work could not produce a result:
// a rejected outcome blames the request (422), an error outcome the server
// (500).
func (rq *request) failed(o Outcome, msg string) *reply {
	return &reply{status: statusOf(o), env: rq.job.fail(o, rq.id, msg, 0)}
}

// statusOf is the HTTP status of an admitted request's outcome.
func statusOf(o Outcome) int {
	switch o {
	case OutcomeError:
		return http.StatusInternalServerError
	case OutcomeRejected:
		return http.StatusUnprocessableEntity
	}
	return http.StatusOK
}

// budgetCtx is the context of the request's budgeted work: canceled by a
// client disconnect, or by a drain whose grace period expired. Call stop
// when the work is done.
func (rq *request) budgetCtx() (ctx context.Context, stop func()) {
	ctx, cancel := context.WithCancel(rq.r.Context())
	unhook := context.AfterFunc(rq.s.baseCtx, cancel)
	return ctx, func() {
		unhook()
		cancel()
	}
}

// decompose runs core.Decompose on h under the request's knobs, timed as
// the solve phase. The run's events feed the lifecycle spans, the
// /debug/runs gauges and extra (nil for none).
func (rq *request) decompose(ctx context.Context, h *hypergraph.Hypergraph, extra obs.Recorder) (*core.Decomposition, error) {
	start := time.Now()
	d, err := core.Decompose(h, core.Options{
		Algorithm:  rq.p.algo,
		Ctx:        ctx,
		Timeout:    rq.p.timeout,
		MaxNodes:   rq.p.nodes,
		CheckEvery: rq.s.cfg.CheckEvery,
		Seed:       rq.p.seed,
		Workers:    rq.p.workers,
		Recorder:   obs.Tee(rq.lc.spans, rq.ri, extra),
	})
	rq.lc.phase(phaseSolve, time.Since(start))
	return d, err
}

// decomposeFailure classifies a core.Decompose error: a contained panic is
// the server's failure, anything else (empty hypergraph, uncovered
// vertices, no decomposition within the tried widths) the request's.
func decomposeFailure(err error) (Outcome, string) {
	var pe *budget.PanicError
	if errors.As(err, &pe) {
		return OutcomeError, fmt.Sprintf("algorithm panicked (contained): %v", pe.Value)
	}
	return OutcomeRejected, err.Error()
}
