package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"time"

	gdp "repro"
)

// estimate-open: POST /v1/estimate against one `gdpsim serve`, first open
// loop at two fixed rates (light, then heavy), then closed loop with two
// connections (sat). The rates and the latency limit are frozen constants:
// they were measured once on the seed commit on a 2-CPU host and are never
// adapted per run.
const (
	// estRateLight and estRateHeavy are about 1/3 and 3/5 of the seed
	// commit's closed-loop capacity for this body mix (requests/s). Heavy
	// stays below 3/4: there the p90 swings with every few percent of host
	// noise in capacity, too much for the benchmark's bounds.
	estRateLight = 16.0
	estRateHeavy = 29.0
	// estLatencyLimit is the open-loop latency limit: a request answered
	// later than this after its due time counts as failed. It is ten times
	// the seed commit's light-step p90 (about 60 ms), so it trips when the
	// server falls behind its arrivals, not on ordinary queueing.
	estLatencyLimit = 600 * time.Millisecond
	// estSatRate is the seed commit's closed-loop rate; the sat step sends
	// estSatRate × its share of the window requests.
	estSatRate = 48.0
	// estRounds is how many times a run cycles through light, heavy and sat.
	// A shared host's speed can wander by 10-30% over seconds; cycling
	// spreads every step's samples over the whole window, so a slow spell
	// moves part of each step rather than all of one.
	estRounds = 4
	// estConns is the generator's connection limit: nproc on the 2-CPU host.
	estConns = 2
	// Request sizes.
	estInstructions = 800
	estInterval     = 1000
	// estMinStep is the fewest requests an open-loop step may have for its
	// p90; a shorter step makes the run invalid.
	estMinStep = 100
	// estCheckSample is how many distinct bodies are recomputed in-process
	// with Engine.Estimate after timing.
	estCheckSample = 6
	// estHotSet is the number of distinct hot bodies.
	estHotSet = 6
)

// The window is split between the steps in these shares, each share spread
// over estRounds segments (the remainder is set-up and the traced run's
// untraced baseline).
const (
	estShareLight = 0.40
	estShareHeavy = 0.35
	estShareSat   = 0.20
)

var (
	estTechniques = []string{"GDP", "GDP-O", "ITCA", "PTCA", "ASM"}
	estMixes2     = []string{"H", "M", "L"}
	estMixes4     = []string{"H", "M", "L", "HHML", "HMML", "HMLL"}
	estScenarios  = []string{"streaming", "pointer-chase", "bursty", "phased",
		"cache-thrash", "latency-bound", "bandwidth-bound", "compute-heavy"}
)

// estBody is one request body.
type estBody struct {
	req  gdp.EstimateRequest
	data []byte
	hot  bool
}

// bodyGen produces request bodies. Bodies come in blocks of 26 arrivals
// (28 requests) in a seeded order: one distinct body of each of the 20
// (technique × shape) classes, and each of the 6 hot bodies once, 4 of them as
// singles and 2 as concurrent identical pairs. So every seed sends the same
// mix of work in every block: a quarter 2-core and three quarters 4-core
// distinct bodies over mixes and scenarios, and 8 of 28 requests (about 30%)
// from the hot set, which holds scenario bodies only so that its cost does
// not depend on the seed's benchmark draw.
type bodyGen struct {
	seed     int64
	rng      *rand.Rand
	distinct int
	hot      []*estBody
	block    []int // arrival kinds of the current block: 0 distinct, 1 hot, 2 hot pair
	classes  []int // distinct classes of the current block, in order
	hotOrder []int // hot bodies of the current block, in order
}

// The composition of one block of arrivals.
const (
	estClasses       = 20 // distinct body classes: 5 techniques × 4 shapes
	estHotPairs      = 2  // hot bodies sent as concurrent identical pairs
	estBlockArrivals = estClasses + estHotSet
	estBlockRequests = estBlockArrivals + estHotPairs
)

func newBodyGen(seed int64) *bodyGen {
	g := &bodyGen{seed: seed, rng: rand.New(rand.NewSource(seed))}
	for j := 0; j < estHotSet; j++ {
		req := gdp.EstimateRequest{
			Cores:               4,
			Scenario:            estScenarios[j],
			Technique:           estTechniques[j%len(estTechniques)],
			InstructionsPerCore: estInstructions,
			IntervalCycles:      estInterval,
			Seed:                seed*7919 + int64(j) + 1,
		}
		if j%3 == 0 {
			req.Cores = 2
		}
		g.hot = append(g.hot, newBody(req, true))
	}
	return g
}

func newBody(req gdp.EstimateRequest, hot bool) *estBody {
	data, _ := json.Marshal(req) // a struct of strings and numbers always marshals
	return &estBody{req: req, data: data, hot: hot}
}

// distinctBody builds the request of class c (technique × shape) with the
// n-th workload choice of its shape. Shape 0 is 2-core, the rest 4-core;
// shapes 0 and 3 alternate between mixes and scenarios.
func (g *bodyGen) distinctBody(c, n int, simSeed int64) *estBody {
	req := gdp.EstimateRequest{
		Cores:               4,
		Technique:           estTechniques[c%len(estTechniques)],
		InstructionsPerCore: estInstructions,
		IntervalCycles:      estInterval,
		Seed:                simSeed,
	}
	mixes := estMixes4
	switch shape := c / len(estTechniques); {
	case shape == 0:
		req.Cores, mixes = 2, estMixes2
		fallthrough
	case shape == 3:
		if n%2 == 0 {
			req.Mix = mixes[n/2%len(mixes)]
		} else {
			req.Scenario = estScenarios[n/2%len(estScenarios)]
		}
	case shape == 1:
		req.Mix = mixes[n%len(mixes)]
	default:
		req.Scenario = estScenarios[n%len(estScenarios)]
	}
	return newBody(req, false)
}

// next returns the bodies of the next arrival: one body, or two identical
// hot bodies to be sent concurrently.
func (g *bodyGen) next() []*estBody {
	if len(g.block) == 0 {
		g.block = make([]int, estBlockArrivals)
		for i := 0; i < estHotSet; i++ {
			g.block[i] = 1
			if i < estHotPairs {
				g.block[i] = 2
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.classes = g.rng.Perm(estClasses)
		g.hotOrder = g.rng.Perm(estHotSet)
	}
	kind := g.block[0]
	g.block = g.block[1:]
	if kind != 0 {
		h := g.hot[g.hotOrder[0]]
		g.hotOrder = g.hotOrder[1:]
		if kind == 2 {
			return []*estBody{h, h}
		}
		return []*estBody{h}
	}
	class, n := g.classes[0], g.distinct/estClasses
	g.classes = g.classes[1:]
	g.distinct++
	return []*estBody{g.distinctBody(class, n, g.seed*1000003+int64(g.distinct))}
}

// estRequest is one scheduled request and its outcome.
type estRequest struct {
	body     *estBody
	due      time.Time
	released time.Time // when the generator handed it to a connection
	done     time.Time
	resp     []byte
	err      error
}

// estimateRun holds one run's server and response bookkeeping.
type estimateRun struct {
	b      *bench
	srv    *server
	client *http.Client
	mu     sync.Mutex
	seen   map[string][]byte // body → first response bytes
	checks []*estRequest     // distinct bodies to recompute in-process
}

func runEstimate(ctx context.Context, b *bench) error {
	// Set-up: setupSamples spawn-and-stop cycles, then the run's server;
	// every start is one set-up sample.
	setups, err := timeSetups(ctx, func(ctx context.Context) (func(), error) {
		s, err := spawnServer(ctx, b.cfg.gdpsim)
		return s.stop, err
	})
	if err != nil {
		return err
	}
	b.startWindow()
	sp := b.tr.begin("server.spawn", nil)
	t0 := time.Now()
	srv, err := spawnServer(ctx, b.cfg.gdpsim)
	setups = append(setups, time.Since(t0).Seconds())
	sp.end()
	if err != nil {
		return err
	}
	defer srv.stop()
	r := &estimateRun{
		b:   b,
		srv: srv,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        estConns,
			MaxIdleConnsPerHost: estConns,
			MaxConnsPerHost:     estConns,
			DisableCompression:  true,
		}},
		seen: map[string][]byte{},
	}
	defer r.client.CloseIdleConnections()
	gen := newBodyGen(b.cfg.seed)
	secs := float64(b.cfg.seconds)
	satN := int(math.Round(estSatRate * estShareSat * secs))

	var untracedRate, allocBefore float64
	var prof []byte
	var profWG sync.WaitGroup
	if b.tr != nil {
		// Baseline for tracing.overhead_ratio: the sat step untraced.
		base, elapsed := r.closedLoop(ctx, newBodyGen(b.cfg.seed+1), satN/3, nil)
		untracedRate = satRate(base, elapsed)
		if allocBefore, err = srv.totalAlloc(ctx); err != nil {
			return err
		}
		total := int(math.Ceil(secs*(estShareLight+estShareHeavy+estShareSat))) + 1
		profWG.Add(1)
		go func() {
			defer profWG.Done()
			prof, _ = srv.profile(ctx, total) // a lost profile only loses attribution
		}()
	}
	light := &estStep{name: "light", delta: promSnap{}}
	heavy := &estStep{name: "heavy", delta: promSnap{}}
	sat := &estStep{name: "sat", delta: promSnap{}}
	first, err := srv.metrics(ctx)
	if err != nil {
		return err
	}
	prev := first
	for round := 0; round < estRounds; round++ {
		for _, st := range []*estStep{light, heavy, sat} {
			var reqs []*estRequest
			switch st {
			case light:
				reqs = r.openLoop(ctx, gen, estRateLight, secs*estShareLight/estRounds)
			case heavy:
				reqs = r.openLoop(ctx, gen, estRateHeavy, secs*estShareHeavy/estRounds)
			default:
				var elapsed time.Duration
				reqs, elapsed = r.closedLoop(ctx, gen, satN/estRounds, b.tr)
				st.busy += elapsed
			}
			m, err := srv.metrics(ctx)
			if err != nil {
				return err
			}
			st.reqs = append(st.reqs, reqs...)
			st.delta.add(m.delta(prev))
			prev = m
		}
	}
	rate := satRate(sat.reqs, sat.busy)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}

	// Correctness: status, identical bytes for identical bodies (checked as
	// responses arrive), latency limit on the open steps, and a fixed sample
	// of distinct bodies recomputed in-process.
	for _, st := range []*estStep{light, heavy} {
		if len(st.reqs) < estMinStep {
			b.rep.markInvalid("estimate-open: the %s step sent %d requests, fewer than the %d its p90 needs (raise --seconds)", st.name, len(st.reqs), estMinStep)
		}
		for _, q := range st.reqs {
			err := q.err
			if err == nil && q.done.Sub(q.due) > estLatencyLimit {
				err = fmt.Errorf("latency %v over the %v limit", q.done.Sub(q.due).Round(time.Millisecond), estLatencyLimit)
			}
			b.rep.op(err)
		}
	}
	for _, q := range sat.reqs {
		b.rep.op(q.err)
	}
	if err := r.recheck(ctx); err != nil {
		b.rep.op(err)
	}

	if b.tr == nil {
		b.rep.set("setup_s", median(setups), len(setups))
		// The sat step's batch wall clock at its median throughput.
		b.rep.set("wall_s", ratio(float64(len(sat.reqs)), rate), len(sat.reqs))
		b.rep.set("peak_rss_mb", rss, 1)
		for _, st := range []*estStep{light, heavy} {
			lat := latencies(st.reqs, func(q *estRequest) time.Duration { return q.done.Sub(q.due) })
			b.rep.set("lat_p50_ms."+st.name, 1000*quantile(lat, 0.5), len(lat))
			b.rep.set("lat_p90_ms."+st.name, 1000*quantile(lat, 0.9), len(lat))
		}
		b.rep.set("estimate_rps.sat", rate, len(sat.reqs))
		b.rep.mu.Lock()
		ok := ratio(float64(b.rep.attempted-b.rep.failed), float64(b.rep.attempted))
		n := b.rep.attempted
		b.rep.mu.Unlock()
		b.rep.set("ok_ratio", ok, n)
		return nil
	}

	profWG.Wait()
	acc := newLayerAcc()
	if prof != nil {
		if err := acc.fold.add(prof); err != nil {
			fmt.Fprintln(os.Stderr, "gdpbench: server profile:", err)
		}
	}
	if a, err := srv.totalAlloc(ctx); err == nil {
		acc.allocBytes = a - allocBefore
	}
	all := prev.delta(first)
	acc.prom = all
	acc.ops = 1
	acc.width = 1
	acc.spanSeconds = all.sum("gdpsim_http_request_seconds_sum", `endpoint="/v1/estimate"`)
	acc.emit(b.rep)
	b.rep.set("tracing.overhead_ratio", ratio(untracedRate, rate), len(sat.reqs))
	requests := 0
	for _, st := range []*estStep{light, heavy, sat} {
		requests += len(st.reqs)
		p50 := st.delta.histQuantile("gdpsim_http_request_seconds", 0.5, `endpoint="/v1/estimate"`)
		b.rep.set("http.server_p50_ms."+st.name, 1000*p50, len(st.reqs))
		b.rep.set("http.server_p90_ms."+st.name, 1000*st.delta.histQuantile("gdpsim_http_request_seconds", 0.9, `endpoint="/v1/estimate"`), len(st.reqs))
		if st.name == "sat" {
			continue
		}
		late := latencies(st.reqs, func(q *estRequest) time.Duration { return q.released.Sub(q.due) })
		b.rep.set("loadgen.late_p90_ms."+st.name, 1000*quantile(late, 0.9), len(late))
		if st.name == "heavy" {
			client := latencies(st.reqs, func(q *estRequest) time.Duration { return q.done.Sub(q.due) })
			b.rep.set("http.wait_p50_ms.heavy", math.Max(0, 1000*quantile(client, 0.5)-1000*p50), len(client))
		}
	}
	b.rep.set("coalesce.sims_per_request", ratio(all.sum("gdpsim_sim_runs_total"), float64(requests)), requests)
	return nil
}

// estStep is one load step's requests and server telemetry, gathered over
// its estRounds segments.
type estStep struct {
	name  string
	reqs  []*estRequest
	delta promSnap      // the server's telemetry delta over the step's segments
	busy  time.Duration // sat: wall time of the closed-loop segments
}

// satRate is the closed-loop throughput: correct responses per second of the
// closed-loop segments' wall time. It counts every request of the step, so
// the body mix it averages over is the same for every seed.
func satRate(reqs []*estRequest, busy time.Duration) float64 {
	ok := 0
	for _, q := range reqs {
		if q.err == nil {
			ok++
		}
	}
	return ratio(float64(ok), busy.Seconds())
}

func latencies(reqs []*estRequest, f func(*estRequest) time.Duration) []float64 {
	out := make([]float64, 0, len(reqs))
	for _, q := range reqs {
		if q.err == nil {
			out = append(out, f(q).Seconds())
		}
	}
	return out
}

// openLoop sends requests on a seeded arrival schedule at rate requests/s for
// the given seconds, over at most estConns connections. Arrival gaps are the
// mean gap scaled by a seeded factor in [0.8, 1.2). A request that finds every connection
// busy waits in the generator; its latency still counts from its due time.
func (r *estimateRun) openLoop(ctx context.Context, gen *bodyGen, rate, seconds float64) []*estRequest {
	// Arrivals carry more requests than one each (the hot pairs), so space
	// them accordingly to hit the request rate.
	meanGap := time.Duration(float64(time.Second) * estBlockRequests / estBlockArrivals / rate)
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	var sched []*estRequest
	due := start
	for due.Before(end) {
		for _, body := range gen.next() {
			sched = append(sched, &estRequest{body: body, due: due})
		}
		due = due.Add(time.Duration(float64(meanGap) * (0.8 + 0.4*gen.rng.Float64())))
	}
	queue := make(chan *estRequest, len(sched)) // one slot per scheduled send
	var wg sync.WaitGroup
	for c := 0; c < estConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				r.send(ctx, q, r.b.tr)
			}
		}()
	}
	for _, q := range sched {
		if d := time.Until(q.due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		q.released = time.Now()
		queue <- q
	}
	close(queue)
	wg.Wait()
	return sched
}

// closedLoop sends n requests over estConns connections, each connection
// sending its next request as soon as the previous one completes, and
// returns the requests and the segment's wall time.
func (r *estimateRun) closedLoop(ctx context.Context, gen *bodyGen, n int, tr *tracer) ([]*estRequest, time.Duration) {
	var reqs []*estRequest
	for len(reqs) < n {
		for _, body := range gen.next() {
			reqs = append(reqs, &estRequest{body: body})
		}
	}
	queue := make(chan *estRequest, len(reqs)) // one slot per request
	for _, q := range reqs {
		queue <- q
	}
	close(queue)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < estConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				q.due = time.Now()
				q.released = q.due
				r.send(ctx, q, tr)
			}
		}()
	}
	wg.Wait()
	return reqs, time.Since(start)
}

// send performs one request and checks its response against earlier
// responses to the same body. On traced runs it records the request span and
// its connect, first-byte and body phases.
func (r *estimateRun) send(ctx context.Context, q *estRequest, tr *tracer) {
	sp := tr.begin("POST /v1/estimate", nil)
	// The transport may dial on another goroutine, so the phase instants
	// are guarded.
	var phaseMu sync.Mutex
	var connStart, connDone, wrote, firstByte time.Time
	stamp := func(t *time.Time) {
		phaseMu.Lock()
		*t = time.Now()
		phaseMu.Unlock()
	}
	if sp != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			ConnectStart:         func(string, string) { stamp(&connStart) },
			ConnectDone:          func(string, string, error) { stamp(&connDone) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { stamp(&wrote) },
			GotFirstResponseByte: func() { stamp(&firstByte) },
		})
	}
	defer func() {
		q.done = time.Now()
		phaseMu.Lock()
		defer phaseMu.Unlock()
		sp.phase("connect", connStart, connDone)
		sp.phase("first_byte", wrote, firstByte)
		sp.phase("body", firstByte, q.done)
		sp.end()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.srv.url+"/v1/estimate", bytes.NewReader(q.body.data))
	if err != nil {
		q.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		q.err = err
		return
	}
	defer resp.Body.Close()
	q.resp, err = io.ReadAll(resp.Body)
	if err != nil {
		q.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		q.err = fmt.Errorf("POST /v1/estimate: %s: %s", resp.Status, bytes.TrimSpace(q.resp))
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := string(q.body.data)
	if prev, ok := r.seen[key]; ok {
		if !bytes.Equal(prev, q.resp) {
			q.err = errors.New("identical estimate bodies returned different bytes")
		}
		return
	}
	r.seen[key] = q.resp
	if !q.body.hot && len(r.checks) < estCheckSample {
		r.checks = append(r.checks, q)
	}
}

// recheck recomputes the sampled distinct bodies in-process with
// Engine.Estimate and compares them with the server's answers.
func (r *estimateRun) recheck(ctx context.Context) error {
	e, err := gdp.NewEngine()
	if err != nil {
		return err
	}
	for _, q := range r.checks {
		req := q.body.req
		local, err := e.Estimate(ctx, &req)
		if err != nil {
			return fmt.Errorf("in-process estimate: %w", err)
		}
		var remote gdp.EstimateResponse
		if err := json.Unmarshal(q.resp, &remote); err != nil {
			return fmt.Errorf("decoding server estimate: %w", err)
		}
		a, _ := json.Marshal(local)
		b, _ := json.Marshal(&remote)
		if !bytes.Equal(a, b) {
			return fmt.Errorf("server estimate for %s differs from Engine.Estimate", q.body.data)
		}
	}
	return nil
}
