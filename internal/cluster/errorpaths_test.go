package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"newslink/internal/faults"
	"newslink/internal/server"
)

// postForCode posts a JSON body to a worker RPC endpoint and asserts the
// status and error-envelope code of the reply.
func postForCode(t *testing.T, url, body string, wantStatus int, wantCode string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d\nbody: %s", url, resp.StatusCode, wantStatus, raw)
	}
	var env server.ErrorResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("POST %s: decoding envelope: %v\nbody: %s", url, err, raw)
	}
	if env.Error.Code != wantCode {
		t.Fatalf("POST %s: error code %q, want %q", url, env.Error.Code, wantCode)
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWorkerUnassignedErrorPaths pins the RPC error contract of a
// worker that has no assignment yet: malformed bodies are 400s with a
// typed code, well-formed requests are 503 unassigned (the router's
// signal to re-assign), and the read-only endpoints stay serviceable.
func TestWorkerUnassignedErrorPaths(t *testing.T) {
	_, g := buildSnapshot(t)
	_, endpoints := startWorkers(t, g, 1)
	base := endpoints[0][0]

	// Decode errors on every RPC: each handler rejects junk with 400.
	for _, ep := range []string{"assign", "stats", "search", "docs", "explain"} {
		postForCode(t, base+"/v1/shard/"+ep, "{junk", http.StatusBadRequest, "bad_request")
	}

	// Valid messages against an unassigned worker: 503 unassigned.
	postForCode(t, base+"/v1/shard/stats", mustMarshal(t, &StatsRequest{Plan: "p"}),
		http.StatusServiceUnavailable, "unassigned")
	postForCode(t, base+"/v1/shard/search", mustMarshal(t, &SearchRequest{Plan: "p", K: 5}),
		http.StatusServiceUnavailable, "unassigned")
	postForCode(t, base+"/v1/shard/docs", mustMarshal(t, &DocsRequest{Plan: "p", Positions: []int{0}}),
		http.StatusServiceUnavailable, "unassigned")
	postForCode(t, base+"/v1/shard/explain", mustMarshal(t, &ExplainRequest{Plan: "p", Query: "q"}),
		http.StatusServiceUnavailable, "unassigned")

	// readyz says not ready; healthz and metrics answer regardless.
	getJSON(t, base+"/v1/readyz", http.StatusServiceUnavailable, nil)
	getJSON(t, base+"/v1/healthz", http.StatusOK, nil)
	var metrics map[string]any
	getJSON(t, base+"/v1/metrics", http.StatusOK, &metrics)
	if len(metrics) != 0 {
		t.Fatalf("unassigned worker reported metrics %v, want none", metrics)
	}

	// Blob endpoint: names outside the artifact grammar are rejected
	// before touching the filesystem; well-formed but absent names 404.
	getJSON(t, base+"/v1/shard/blob/manifest.json", http.StatusBadRequest, nil)
	getJSON(t, base+"/v1/shard/blob/seg-0123456789abcdef.text.idx", http.StatusNotFound, nil)
}

// TestWorkerAssignedErrorPaths exercises the post-assignment error
// contract: plan mismatches are 409 (re-assign, don't retry), unknown
// documents are 404, and the metrics endpoint reflects the live engine.
func TestWorkerAssignedErrorPaths(t *testing.T) {
	dir, g := buildSnapshot(t)
	_, endpoints := startWorkers(t, g, 3)
	rt, _ := startRouter(t, dir, g, Config{Endpoints: endpoints})
	plan := rt.Plan().ID
	base := endpoints[0][0]

	postForCode(t, base+"/v1/shard/stats", mustMarshal(t, &StatsRequest{Plan: "bogus"}),
		http.StatusConflict, "plan_mismatch")
	postForCode(t, base+"/v1/shard/docs",
		mustMarshal(t, &DocsRequest{Plan: plan, Positions: []int{999999}}),
		http.StatusNotFound, "unknown_document")
	postForCode(t, base+"/v1/shard/explain",
		mustMarshal(t, &ExplainRequest{Plan: plan, Query: "border", DocID: 999999, MaxPaths: 2}),
		http.StatusNotFound, "unknown_document")

	getJSON(t, base+"/v1/readyz", http.StatusOK, nil)
	var metrics map[string]any
	getJSON(t, base+"/v1/metrics", http.StatusOK, &metrics)
	if len(metrics) == 0 {
		t.Fatal("assigned worker reported no metrics")
	}
}

// fetch GETs rawurl and returns the status, headers and body.
func fetch(t *testing.T, rawurl string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(rawurl)
	if err != nil {
		t.Fatalf("GET %s: %v", rawurl, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", rawurl, err)
	}
	return resp.StatusCode, resp.Header, body
}

// errorCode decodes the error envelope's code; "" for a success body.
func errorCode(t *testing.T, path string, body []byte) string {
	t.Helper()
	var env server.ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("%s: decoding: %v\nbody: %s", path, err, body)
	}
	return env.Error.Code
}

// TestHandlerTableBothBackends runs one request table against the
// single-process server and the router, which share one HTTP edge: every
// row answers the same status and error code on both, parameter errors
// fire before any shard RPC, and successes carry DeepEqual results and
// explanations. The router-only half pins what the shared edge gives the
// router: request IDs, the Prometheus exposition, panic recovery,
// admission control, and the blob endpoint beside it.
func TestHandlerTableBothBackends(t *testing.T) {
	dir, g, workers, rt, ts := startCluster(t, Config{})
	ref := referenceServer(t, dir, g)
	q := url.QueryEscape(identityQueries[0])
	// An entity-named query, so its top document shares entities with it.
	w, _ := fixtureCorpus()
	eq := url.QueryEscape(w.Graph.Label(w.Events[0].Participants[0]))
	var top server.SearchResponse
	getJSON(t, ref.URL+"/v1/search?q="+eq+"&k=1", http.StatusOK, &top)
	if len(top.Results) == 0 {
		t.Fatal("no result to explain")
	}
	explainTop := fmt.Sprintf("/v1/explain?q=%s&id=%d&paths=3", eq, top.Results[0].ID)

	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/search", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=x&k=0", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=x&k=abc", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=x&k=5000", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=x&pool=-1", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=x&pool=abc", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=x&beta=2", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=x&beta=abc", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=x&after=abc", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=x&entity=", http.StatusBadRequest, "bad_request"},
		{"/v1/explain", http.StatusBadRequest, "bad_request"},
		{"/v1/explain?q=x", http.StatusBadRequest, "bad_request"},
		{"/v1/explain?q=x&id=abc", http.StatusBadRequest, "bad_request"},
		{"/v1/explain?q=x&id=0&paths=5000", http.StatusBadRequest, "bad_request"},
		{"/v1/explain?q=x&id=0&paths=-1", http.StatusBadRequest, "bad_request"},
		{"/v1/explain?q=x&id=0&paths=abc", http.StatusBadRequest, "bad_request"},
		{"/v1/explain?q=x&id=0&before=abc", http.StatusBadRequest, "bad_request"},
		{"/v1/explain?q=x&id=0&entity=", http.StatusBadRequest, "bad_request"},
		// A document id outside the plan is 404 without any shard
		// round-trip; a tombstoned one is unknown cluster-wide.
		{"/v1/explain?q=x&id=999999", http.StatusNotFound, "unknown_document"},
		{"/v1/explain?q=x&id=3", http.StatusNotFound, "unknown_document"},
		{"/v1/healthz", http.StatusOK, ""},
		{"/v1/readyz", http.StatusOK, ""},
		{"/v1/search?q=" + q + "&k=5", http.StatusOK, ""},
		{"/v1/search?q=" + q + "&k=5&beta=0.5&pool=20", http.StatusOK, ""},
		{explainTop, http.StatusOK, ""},
	} {
		gotStatus, hdr, gotBody := fetch(t, ts.URL+tc.path)
		wantStatus, _, wantBody := fetch(t, ref.URL+tc.path)
		if gotStatus != tc.status || wantStatus != tc.status {
			t.Fatalf("%s: router %d, single process %d, want %d\nrouter: %s\nsingle: %s",
				tc.path, gotStatus, wantStatus, tc.status, gotBody, wantBody)
		}
		if hdr.Get("X-Request-Id") == "" {
			t.Fatalf("%s: router reply has no X-Request-Id", tc.path)
		}
		if gc, wc := errorCode(t, tc.path, gotBody), errorCode(t, tc.path, wantBody); gc != tc.code || wc != tc.code {
			t.Fatalf("%s: router code %q, single process %q, want %q", tc.path, gc, wc, tc.code)
		}
		if tc.status != http.StatusOK {
			continue
		}
		switch {
		case strings.HasPrefix(tc.path, "/v1/search"):
			var got, want server.SearchResponse
			if json.Unmarshal(gotBody, &got) != nil || json.Unmarshal(wantBody, &want) != nil {
				t.Fatalf("%s: undecodable search replies", tc.path)
			}
			if len(want.Results) == 0 || !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%s: results diverge\nrouter: %+v\nsingle: %+v", tc.path, got.Results, want.Results)
			}
		case strings.HasPrefix(tc.path, "/v1/explain"):
			var got, want server.ExplainResponse
			if json.Unmarshal(gotBody, &got) != nil || json.Unmarshal(wantBody, &want) != nil {
				t.Fatalf("%s: undecodable explain replies", tc.path)
			}
			if len(want.Explanation.SharedEntities) == 0 || !reflect.DeepEqual(got.Explanation, want.Explanation) {
				t.Fatalf("%s: explanations diverge\nrouter: %+v\nsingle: %+v", tc.path, got.Explanation, want.Explanation)
			}
		}
	}

	var metrics map[string]any
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &metrics)
	if len(metrics) == 0 {
		t.Fatal("router reported no metrics")
	}
	_, _, prom := fetch(t, ts.URL+"/v1/metrics/prom")
	for _, want := range []string{`newslink_http_requests_total{route="search"}`, "newslink_cluster_shard_seconds"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("router /v1/metrics/prom lacks %s", want)
		}
	}

	// A panicking handler answers the uniform 500 envelope.
	faults.Arm(faults.New().Panic(faults.Handler, "injected handler panic"))
	status, _, body := fetch(t, ts.URL+"/v1/search?q=x")
	faults.Disarm()
	if code := errorCode(t, "panic", body); status != http.StatusInternalServerError || code != "internal_panic" {
		t.Fatalf("panicking router handler: %d %q, want 500 internal_panic", status, code)
	}

	// Admission control: with capacity 1, a search arriving while a slow
	// one holds the slot is shed with 429 and a Retry-After hint.
	limited := httptest.NewServer(rt.Handler(server.WithMaxInFlight(1)))
	t.Cleanup(limited.Close)
	faults.Arm(faults.New().Delay(faults.ClusterShard(workers[0].ID()), 300*time.Millisecond))
	defer faults.Disarm()
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(limited.URL + "/v1/search?q=" + q)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	inFlight := rt.Metrics().Gauge("newslink_http_in_flight", "")
	deadline := time.Now().Add(5 * time.Second)
	for inFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	status, hdr, _ := fetch(t, limited.URL+"/v1/search?q="+q)
	if status != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("over-capacity search: status %d, Retry-After %q; want 429 with a hint", status, hdr.Get("Retry-After"))
	}
	if got := <-done; got != http.StatusOK {
		t.Fatalf("admitted slow search answered %d", got)
	}
	faults.Disarm()

	// The router's blob endpoint serves every plan artifact by its
	// content-addressed name and rejects everything else.
	var served bool
	for name := range rt.Plan().Checksums {
		getJSON(t, ts.URL+"/v1/shard/blob/"+name, http.StatusOK, nil)
		served = true
		break
	}
	if !served {
		t.Fatal("plan has no checksummed artifacts")
	}
	getJSON(t, ts.URL+"/v1/shard/blob/..%2Fmanifest.json", http.StatusBadRequest, nil)
}

// TestRouterDeadlineExceeded pins the 504 mapping: a request budget too
// small for even one scatter pass surfaces as deadline_exceeded, not as
// a 500 or a degraded 200.
func TestRouterDeadlineExceeded(t *testing.T) {
	_, _, _, _, ts := startCluster(t, Config{RequestTimeout: time.Nanosecond})

	resp, err := http.Get(ts.URL + "/v1/search?q=border")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504\nbody: %s", resp.StatusCode, raw)
	}
	var env server.ErrorResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "deadline_exceeded" {
		t.Fatalf("error code %q, want deadline_exceeded", env.Error.Code)
	}
}

// TestNewWorkerDefaultLogger covers the nil-logger construction path
// used when the worker is embedded without explicit logging.
func TestNewWorkerDefaultLogger(t *testing.T) {
	_, g := buildSnapshot(t)
	w := NewWorker("solo", t.TempDir(), g, nil)
	if w.ID() != "solo" {
		t.Fatalf("worker id %q, want solo", w.ID())
	}
}
