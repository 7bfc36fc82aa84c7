package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hypertree/internal/budget/faultinject"
)

// contractEndpoint is one POST route under the shared request pipeline,
// with a payload it serves successfully.
type contractEndpoint struct {
	path  string
	query string
	body  string
}

var contractEndpoints = []contractEndpoint{
	{"/decompose", "algo=bb-ghw", acyclic4HG},
	{"/query", "algo=bb-ghw", queryBody(`{"op": "count"}`)},
}

// served is one answer captured straight off the handler.
type served struct {
	status int
	header http.Header
	env    map[string]any
}

// serveOnce runs one request through s.ServeHTTP. Going through the handler
// rather than a socket lets a test observe answers the client would never
// see, such as the 499 written after the client canceled.
func serveOnce(t *testing.T, s *Server, ctx context.Context, path, query, body string) served {
	t.Helper()
	if ctx == nil {
		ctx = context.Background()
	}
	url := path
	if query != "" {
		url += "?" + query
	}
	r := httptest.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body))).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	var env map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Errorf("POST %s: response is not a JSON envelope: %v (%q)", url, err, w.Body.String())
	}
	return served{status: w.Code, header: w.Header(), env: env}
}

// expectRejected checks a typed rejection: the status, the rejected
// outcome with an error message, the lifecycle fields every envelope
// carries, and Retry-After exactly when the row expects backpressure.
func expectRejected(t *testing.T, got served, status int, retry bool) {
	t.Helper()
	if got.status != status {
		t.Fatalf("status = %d, want %d (envelope %v)", got.status, status, got.env)
	}
	if got.env["outcome"] != string(OutcomeRejected) || got.env["error"] == nil {
		t.Fatalf("envelope %v is not a typed rejection", got.env)
	}
	expectLifecycleFields(t, got)
	if hasRetry := got.header.Get("Retry-After") != ""; hasRetry != retry {
		t.Fatalf("Retry-After = %q, want present=%v", got.header.Get("Retry-After"), retry)
	}
	if retry && got.env["retry_after_s"] == nil {
		t.Fatalf("envelope %v lacks retry_after_s", got.env)
	}
}

func expectLifecycleFields(t *testing.T, got served) {
	t.Helper()
	if _, ok := got.env["waited_ms"]; !ok {
		t.Errorf("waited_ms missing from envelope %v", got.env)
	}
	if _, ok := got.env["timings"].(map[string]any); !ok {
		t.Errorf("timings missing from envelope %v", got.env)
	}
}

// parkSlot blocks a long /decompose inside the server's only worker slot
// and returns the function that lets it finish.
func parkSlot(t *testing.T, s *Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	faultinject.Arm(faultinject.SiteServerHandle, 1, func() { <-gate })
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveOnce(t, s, nil, "/decompose", "algo=bb-ghw", cycle6HG)
	}()
	waitFor(t, 2*time.Second, func() bool { return s.InFlight() == 1 })
	return func() {
		close(gate)
		<-done
	}
}

// TestEndpointContract runs every behaviour the shared request pipeline
// owns against both POST endpoints: each row must hold for /decompose and
// /query alike.
func TestEndpointContract(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, ep contractEndpoint)
	}{
		{"draining", func(t *testing.T, ep contractEndpoint) {
			s := New(Config{})
			s.Drain(0)
			expectRejected(t, serveOnce(t, s, nil, ep.path, ep.query, ep.body), http.StatusServiceUnavailable, true)
		}},
		{"oversize", func(t *testing.T, ep contractEndpoint) {
			s := New(Config{MaxRequestBytes: 16})
			expectRejected(t, serveOnce(t, s, nil, ep.path, ep.query, ep.body), http.StatusRequestEntityTooLarge, false)
		}},
		{"bad timeout", func(t *testing.T, ep contractEndpoint) {
			s := New(Config{})
			expectRejected(t, serveOnce(t, s, nil, ep.path, "timeout=-1s", ep.body), http.StatusBadRequest, false)
		}},
		{"saturated", func(t *testing.T, ep contractEndpoint) {
			// The slot is held by a /decompose: a /query shed here proves
			// the two endpoints draw on one pool.
			defer faultinject.Reset()
			s := New(Config{Workers: 1, QueueDepth: -1})
			release := parkSlot(t, s)
			defer release()
			expectRejected(t, serveOnce(t, s, nil, ep.path, ep.query, ep.body), http.StatusTooManyRequests, true)
		}},
		{"canceled while queued", func(t *testing.T, ep contractEndpoint) {
			defer faultinject.Reset()
			s := New(Config{Workers: 1, QueueDepth: 4})
			release := parkSlot(t, s)
			defer release()
			ctx, cancel := context.WithCancel(context.Background())
			got := make(chan served, 1)
			go func() { got <- serveOnce(t, s, ctx, ep.path, ep.query, ep.body) }()
			waitFor(t, 2*time.Second, func() bool { return s.pending.Load() == 2 })
			cancel()
			expectRejected(t, <-got, statusClientClosedRequest, false)
		}},
		{"lifecycle fields on every envelope", func(t *testing.T, ep contractEndpoint) {
			s := New(Config{})
			ok := serveOnce(t, s, nil, ep.path, ep.query, ep.body)
			if ok.status != http.StatusOK {
				t.Fatalf("status = %d, want 200 (envelope %v)", ok.status, ok.env)
			}
			expectLifecycleFields(t, ok)
			expectRejected(t, serveOnce(t, s, nil, ep.path, "algo=nope", ep.body), http.StatusBadRequest, false)
		}},
		{"one access-log line per request", func(t *testing.T, ep contractEndpoint) {
			var log syncBuffer
			s := New(Config{AccessLog: &log})
			answers := []served{
				serveOnce(t, s, nil, ep.path, ep.query, ep.body),
				serveOnce(t, s, nil, ep.path, "algo=nope", ep.body),
			}
			lines := bytes.Split(bytes.TrimSpace(log.Bytes()), []byte("\n"))
			if len(lines) != len(answers) {
				t.Fatalf("access log has %d lines for %d requests:\n%s", len(lines), len(answers), log.Bytes())
			}
			for i, line := range lines {
				var rec accessRecord
				if err := json.Unmarshal(line, &rec); err != nil {
					t.Fatalf("line %d is not JSON: %v", i, err)
				}
				if rec.Req != answers[i].header.Get("X-Request-ID") || rec.Status != answers[i].status {
					t.Errorf("line %d = req %s status %d, want req %s status %d",
						i, rec.Req, rec.Status, answers[i].header.Get("X-Request-ID"), answers[i].status)
				}
				if rec.Timings == nil {
					t.Errorf("line %d has no timings", i)
				}
			}
		}},
		{"retained in /debug/slow", func(t *testing.T, ep contractEndpoint) {
			s := New(Config{})
			got := serveOnce(t, s, nil, ep.path, ep.query, ep.body)
			id := got.header.Get("X-Request-ID")
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/slow", nil))
			var page struct {
				Runs []*SlowRun `json:"runs"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
				t.Fatal(err)
			}
			for _, run := range page.Runs {
				if run.Req == id {
					if run.Timings == nil || run.Timings.Total <= 0 {
						t.Errorf("retained run %s has no timings", id)
					}
					return
				}
			}
			t.Fatalf("request %s not retained in /debug/slow (%d runs)", id, len(page.Runs))
		}},
	}
	for _, row := range rows {
		for _, ep := range contractEndpoints {
			t.Run(row.name+" "+ep.path, func(t *testing.T) { row.run(t, ep) })
		}
	}
}
