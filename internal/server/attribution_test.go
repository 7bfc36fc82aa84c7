package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hypertree/internal/obs/attr"
)

// TestEnvelopeAttribution checks the per-member resource ledger on the
// response envelope: serial runs carry the degenerate one-member ledger,
// portfolio races one row per racer, both balancing under Conserved, and
// cache hits carry none (a hit spends no solver work). The race runs on a
// cyclic input; an α-acyclic one never starts a race and comes back with
// the one-member ledger of the acyclic fast path.
func TestEnvelopeAttribution(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, resp := postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	led := resp.Attribution
	if led == nil {
		t.Fatal("serial response has no attribution ledger")
	}
	if led.Portfolio || len(led.Members) != 1 {
		t.Fatalf("serial ledger shape: portfolio=%v members=%d", led.Portfolio, len(led.Members))
	}
	if led.Winner != "bb-ghw" || led.Members[0].Role != attr.RoleWinner {
		t.Fatalf("serial ledger winner %q role %q", led.Winner, led.Members[0].Role)
	}
	if err := led.Conserved(); err != nil {
		t.Fatalf("serial ledger unbalanced: %v", err)
	}
	if led.TotalNodes != resp.Nodes {
		t.Fatalf("ledger total %d != envelope nodes %d", led.TotalNodes, resp.Nodes)
	}

	_, hit := postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	if !hit.Cached {
		t.Fatal("second identical request was not a cache hit")
	}
	if hit.Attribution != nil {
		t.Fatal("cache hit carries an attribution ledger; it did no solver work")
	}

	_, pr := postDecompose(t, ts, "algo=portfolio", []byte(cycle6HG))
	if pr.Cached {
		t.Fatal("portfolio request was served from the bb-ghw cache entry")
	}
	pled := pr.Attribution
	if pled == nil {
		t.Fatal("portfolio response has no attribution ledger")
	}
	if !pled.Portfolio || len(pled.Members) < 2 {
		t.Fatalf("portfolio ledger shape: portfolio=%v members=%d", pled.Portfolio, len(pled.Members))
	}
	if err := pled.Conserved(); err != nil {
		t.Fatalf("portfolio ledger unbalanced: %v", err)
	}
	if pled.Find(pled.Winner) == nil {
		t.Fatalf("portfolio winner %q has no member row", pled.Winner)
	}

	_, ar := postDecompose(t, ts, "algo=portfolio", []byte(acyclic4HG))
	aled := ar.Attribution
	if ar.Width != 1 || ar.LowerBound != 1 || !ar.Exact {
		t.Fatalf("acyclic fast path: width %d lb %d exact %v, want 1/1/true", ar.Width, ar.LowerBound, ar.Exact)
	}
	if aled == nil || aled.Portfolio || len(aled.Members) != 1 {
		t.Fatalf("acyclic fast path ledger shape: %+v", aled)
	}
	if aled.Winner != "acyclic" || aled.Members[0].Algo != "acyclic" || aled.Members[0].Role != attr.RoleWinner {
		t.Fatalf("acyclic fast path ledger winner %q row %+v", aled.Winner, aled.Members[0])
	}
	if aled.TotalNodes != 0 || ar.Nodes != 0 {
		t.Fatalf("acyclic fast path spent %d/%d search nodes, want none", aled.TotalNodes, ar.Nodes)
	}
	if err := aled.Conserved(); err != nil {
		t.Fatalf("acyclic fast path ledger unbalanced: %v", err)
	}

	// The cumulative /metrics families reflect the three solved runs: bb-ghw
	// won its serial run, the portfolio winner won the race, the fast path
	// won the acyclic request, and the share gauge family is announced.
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	body, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		`hypertree_portfolio_member_wins_total{algo="bb-ghw"} 1`,
		`hypertree_portfolio_member_wins_total{algo="` + pled.Winner + `"}`,
		`hypertree_portfolio_member_wins_total{algo="acyclic"} 1`,
		"# TYPE hypertree_portfolio_member_nodes_total counter",
		"# TYPE hypertree_portfolio_member_improvements_total counter",
		"# TYPE hypertree_portfolio_member_node_share gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugEndpointsDeterministic checks the introspection endpoints declare
// application/json and serve byte-identical bodies across repeated reads of
// unchanged state — the ordering contract (start time / elapsed, request id
// on ties) made observable.
func TestDebugEndpointsDeterministic(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	postDecompose(t, ts, "algo=bb-ghw", []byte(cycle6HG))
	postDecompose(t, ts, "algo=greedy", []byte(acyclic4HG))

	for _, path := range []string{"/debug/runs", "/debug/slow"} {
		read := func() []byte {
			hr, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer hr.Body.Close()
			if ct := hr.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s Content-Type = %q, want application/json", path, ct)
			}
			body, err := io.ReadAll(hr.Body)
			if err != nil {
				t.Fatal(err)
			}
			return body
		}
		if first, second := read(), read(); !bytes.Equal(first, second) {
			t.Errorf("%s not deterministic across reads:\n%s\nvs\n%s", path, first, second)
		}
	}
}

// TestAccessLogRemoteAndWinner checks the access-log additions: every line
// names the client's remote address, and solved lines name the winning
// member's algo label (for portfolio runs, which racer actually produced
// the answer).
func TestAccessLogRemoteAndWinner(t *testing.T) {
	var logBuf syncBuffer
	s := New(Config{AccessLog: &logBuf})
	ts := httptest.NewServer(s)
	defer ts.Close()

	postDecompose(t, ts, "algo=portfolio", []byte(acyclic4HG))

	lines := bytes.Split(bytes.TrimSpace(logBuf.Bytes()), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("access log has %d lines, want 1:\n%s", len(lines), logBuf.Bytes())
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("access line not JSON: %v", err)
	}
	if remote, _ := rec["remote"].(string); remote == "" {
		t.Errorf("access line has no remote address: %v", rec)
	}
	winner, _ := rec["winner"].(string)
	if winner == "" || winner == "portfolio" {
		t.Errorf("access line winner = %q, want a member algo label", winner)
	}
	if rec["algo"] != "portfolio" {
		t.Errorf("access line algo = %v, want portfolio", rec["algo"])
	}
}
