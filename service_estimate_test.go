package gdp

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// memoBody is a small estimate request shared by the memoization tests.
const memoBody = `{"cores": 2, "mix": "H", "instructions_per_core": 2000, "interval_cycles": 2000}`

// postConcurrent fires n identical POSTs at once and returns the recorded
// bodies (failing the test on any non-200).
func postConcurrent(t *testing.T, srv *Server, body string, n int) []string {
	t.Helper()
	var wg sync.WaitGroup
	out := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postJSON(t, srv, "/v1/estimate", body)
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status = %d, body = %s", i, rec.Code, rec.Body.String())
				return
			}
			out[i] = rec.Body.String()
		}(i)
	}
	wg.Wait()
	return out
}

// requireIdentical fails unless every body equals the first.
func requireIdentical(t *testing.T, bodies []string) {
	t.Helper()
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

// TestEstimateMemoIdenticalRequestsOneSimulation: N identical concurrent
// estimates run exactly one simulation — each request either joins it in
// flight or hits the cached result — and every caller receives the same
// bytes.
func TestEstimateMemoIdenticalRequestsOneSimulation(t *testing.T) {
	srv := testServer(t)
	const n = 4
	requireIdentical(t, postConcurrent(t, srv, memoBody, n))
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 1 {
		t.Errorf("sim runs = %v, want 1", got)
	}
	shared := metricValue(t, m, "gdpsim_cache_inflight_joins_total") +
		metricValue(t, m, "gdpsim_cache_hits_total", `layer="memory"`)
	if shared != n-1 {
		t.Errorf("joins + memory hits = %v, want %d", shared, n-1)
	}
}

// TestEstimateMemoDistinctRequestsDoNotShare checks the key: requests that
// differ (here by seed) each run their own simulation.
func TestEstimateMemoDistinctRequestsDoNotShare(t *testing.T) {
	srv := testServer(t)
	var wg sync.WaitGroup
	for _, body := range []string{
		`{"cores": 2, "mix": "H", "seed": 1, "instructions_per_core": 2000, "interval_cycles": 2000}`,
		`{"cores": 2, "mix": "H", "seed": 2, "instructions_per_core": 2000, "interval_cycles": 2000}`,
	} {
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			if rec := postJSON(t, srv, "/v1/estimate", body); rec.Code != http.StatusOK {
				t.Errorf("status = %d, body = %s", rec.Code, rec.Body.String())
			}
		}(body)
	}
	wg.Wait()
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 2 {
		t.Errorf("sim runs = %v, want 2 (distinct requests must not share)", got)
	}
	if got := metricValue(t, m, "gdpsim_cache_misses_total"); got != 2 {
		t.Errorf("cache misses = %v, want 2", got)
	}
}

// TestEstimateMemoRepeatHitsCache: a second identical request arriving after
// the first completed is a memory hit — same bytes, no new simulation.
func TestEstimateMemoRepeatHitsCache(t *testing.T) {
	srv := testServer(t)
	var bodies []string
	for i := 0; i < 2; i++ {
		rec := postJSON(t, srv, "/v1/estimate", memoBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d, body = %s", i, rec.Code, rec.Body.String())
		}
		bodies = append(bodies, rec.Body.String())
	}
	requireIdentical(t, bodies)
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 1 {
		t.Errorf("sim runs = %v, want 1 (the repeat must hit the cache)", got)
	}
	if got := metricValue(t, m, "gdpsim_cache_hits_total", `layer="memory"`); got != 1 {
		t.Errorf("memory hits = %v, want 1", got)
	}
}

// TestEstimateMemoDiskRoundTripByteIdentical: an estimate recalled from the
// disk layer by a fresh process serializes to the bytes it was computed as.
func TestEstimateMemoDiskRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var bodies []string
	for i := 0; i < 2; i++ {
		cache, err := NewDiskResultCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := NewEngine(WithCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(engine)
		if err != nil {
			t.Fatal(err)
		}
		rec := postJSON(t, srv, "/v1/estimate", memoBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("run %d: status = %d, body = %s", i, rec.Code, rec.Body.String())
		}
		bodies = append(bodies, rec.Body.String())
		if i == 1 {
			if got := metricValue(t, scrape(t, srv), "gdpsim_cache_hits_total", `layer="disk"`); got != 1 {
				t.Errorf("disk hits = %v, want 1", got)
			}
		}
	}
	requireIdentical(t, bodies)
}

// TestEstimateMemoBurstAtOneSlot: joiners and cache hits take no limiter
// slot, so a burst of identical requests against a single-slot server sheds
// nothing.
func TestEstimateMemoBurstAtOneSlot(t *testing.T) {
	srv := testServer(t, WithMaxConcurrent(1))
	requireIdentical(t, postConcurrent(t, srv, memoBody, 8))
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_http_shed_total"); got != 0 {
		t.Errorf("shed = %v, want 0", got)
	}
	if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 1 {
		t.Errorf("sim runs = %v, want 1", got)
	}
}

// TestEstimateMemoAbandonedRunNotCached: when every waiter of an in-flight
// estimate disconnects, its simulation is cancelled and nothing is cached, so
// the next identical request recomputes and succeeds.
func TestEstimateMemoAbandonedRunNotCached(t *testing.T) {
	srv := testServer(t)
	const body = `{"cores": 2, "mix": "H", "instructions_per_core": 50000, "interval_cycles": 2000}`
	ctx, cancel := context.WithCancel(context.Background())
	codes := make([]int, 2)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
	}
	// Cancel once both requests are inside the handler.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if metricValue(t, scrape(t, srv), "gdpsim_http_in_flight_requests", `endpoint="/v1/estimate"`) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests never went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	for i, code := range codes {
		if code != statusClientClosedRequest {
			t.Fatalf("abandoned request %d: status = %d, want %d", i, code, statusClientClosedRequest)
		}
	}
	if got := metricValue(t, scrape(t, srv), "gdpsim_sim_runs_total"); got != 0 {
		t.Fatalf("sim runs = %v after abandonment, want 0", got)
	}

	rec := postJSON(t, srv, "/v1/estimate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry: status = %d, body = %s", rec.Code, rec.Body.String())
	}
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 1 {
		t.Errorf("sim runs = %v, want 1 (the retry recomputes)", got)
	}
	if got := metricValue(t, m, "gdpsim_cache_misses_total"); got != 1 {
		t.Errorf("cache misses = %v, want 1", got)
	}
}

// TestEstimateMemoKeyResolvesEngineScale: two Engines with different scales
// share one cache and receive the same body with zero instructions_per_core
// and interval_cycles. Each must answer with its own Engine's estimate, which
// a key over the raw body would confuse.
func TestEstimateMemoKeyResolvesEngineScale(t *testing.T) {
	cache := NewResultCache()
	const body = `{"cores": 2, "mix": "H"}`
	var got []string
	for _, instructions := range []uint64{2000, 3000} {
		engine, err := NewEngine(WithCache(cache), WithScale(StudyScale{
			WorkloadsPerCell:    1,
			InstructionsPerCore: instructions,
			IntervalCycles:      2000,
		}))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(engine)
		if err != nil {
			t.Fatal(err)
		}
		rec := postJSON(t, srv, "/v1/estimate", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("instructions %d: status = %d, body = %s", instructions, rec.Code, rec.Body.String())
		}
		direct, err := engine.Estimate(context.Background(), &EstimateRequest{Cores: 2, Mix: "H"})
		if err != nil {
			t.Fatal(err)
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, direct)
		if rec.Body.String() != want.Body.String() {
			t.Errorf("instructions %d: served estimate differs from Engine.Estimate:\n%s\nvs\n%s",
				instructions, rec.Body.String(), want.Body.String())
		}
		got = append(got, rec.Body.String())
	}
	if got[0] == got[1] {
		t.Error("engines of different scales returned the same estimate")
	}
}

func TestNewServerRejectsNilEngine(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("NewServer(nil) accepted")
	}
}
