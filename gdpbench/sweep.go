package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	gdp "repro"
	"repro/internal/experiments"
	"repro/internal/journal"
)

// sweep-fleet: a checkpointed accuracy sweep run the way
// `gdpsim sweep -checkpoint -warmup-intervals N -journal J -cache-dir D -workers ...`
// runs it, with the coordinator in this process (Engine.SweepWorkers) and a
// fleet of two fresh `gdpsim -jobs 1 serve -pprof` processes on loopback.
// Every operation starts fresh workers and fresh cache and journal
// directories: workers keep whole cells in memory, so a reused fleet would
// answer from memory instead of simulating.
const (
	sweepCores        = 4
	sweepInstructions = 1500
	sweepInterval     = 1000
	// sweepWarmup forks late: most of a cell's run is shared warmup.
	sweepWarmup  = 60
	sweepWorkers = 2
	// maxWorkerWarmup is the workers' limit on checkpoint.warmup_intervals
	// (maxServiceWarmupIntervals in service.go). Above it every worker
	// answers 400 and the dispatcher silently runs the whole grid locally.
	maxWorkerWarmup = 4096
)

var (
	sweepScenarios = []string{"latency-bound", "pointer-chase"}
	sweepPRBs      = []int{2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	sweepMixes     = []gdp.MixKind{gdp.MixH}
	sweepPolicies  = []string{"LRU", "MCP"}
)

// sweepOptions is the grid: 2 scenarios × a long PRB axis, plus one mix's
// accuracy cells along the same axis and one partitioning cell.
func sweepOptions(seed int64, warmup int) gdp.SweepOptions {
	return gdp.SweepOptions{
		CoreCounts:          []int{sweepCores},
		Mixes:               sweepMixes,
		PRBSizes:            sweepPRBs,
		Policies:            sweepPolicies,
		Scenarios:           sweepScenarios,
		Workloads:           1,
		InstructionsPerCore: sweepInstructions,
		IntervalCycles:      sweepInterval,
		Seed:                seed,
		WarmupIntervals:     warmup,
	}
}

func sweepOutput(r *gdp.SweepResult) ([]byte, error) { return json.Marshal(r) }

// sweepReference runs the grid on the plain local serial path: one job, no
// checkpoints, no fleet, no journal.
func sweepReference(ctx context.Context, seed int64) ([]byte, error) {
	e, err := gdp.NewEngine(gdp.WithJobs(1))
	if err != nil {
		return nil, err
	}
	res, err := e.Sweep(ctx, sweepOptions(seed, -1))
	if err != nil {
		return nil, err
	}
	return sweepOutput(res)
}

func runSweep(ctx context.Context, b *bench) error {
	if sweepWarmup > maxWorkerWarmup {
		return fmt.Errorf("sweep-fleet: warmup of %d intervals exceeds the workers' %d limit", sweepWarmup, maxWorkerWarmup)
	}
	ref, err := b.loadReference(ctx)
	if err != nil {
		return err
	}
	var prefixRuns float64
	var tracedOps int
	setup := func(ctx context.Context) (func(), error) {
		env, err := b.sweepSetup(ctx, nil)
		if err != nil {
			return nil, err
		}
		return env.close, nil
	}
	err = b.runBatch(ctx, setup, func(ctx context.Context, traced bool, acc *layerAcc) opResult {
		r, prefix := b.sweepOnce(ctx, traced, acc, ref)
		if traced {
			prefixRuns += prefix
			tracedOps++
		}
		return r
	})
	if err != nil || b.tr == nil {
		return err
	}
	// checkpoint.prefix_dup: fleet prefix runs per distinct warmup group. A
	// single local checkpointed sweep runs each group exactly once.
	e, err := gdp.NewEngine(gdp.WithJobs(2))
	if err != nil {
		return err
	}
	before := engineMetrics(e)
	if _, err := e.Sweep(ctx, sweepOptions(b.cfg.seed, sweepWarmup)); err != nil {
		return err
	}
	groups := engineMetrics(e).delta(before).sum("gdpsim_checkpoint_prefix_runs_total")
	b.rep.set("checkpoint.prefix_dup", ratio(prefixRuns/float64(max(tracedOps, 1)), groups), tracedOps)
	return nil
}

// sweepEnv is one operation's system under test: a fresh fleet, and a
// coordinator Engine with a fresh disk cache and journal.
type sweepEnv struct {
	dir         string
	fleet       []*server
	urls        []string
	e           *gdp.Engine
	jnl         *experiments.SweepJournal
	journalPath string
}

// sweepSetup builds a sweepEnv: it spawns the fleet until every /healthz
// answers 200 and opens the coordinator's cache and journal.
func (b *bench) sweepSetup(ctx context.Context, sp *spanRef) (*sweepEnv, error) {
	dir, err := os.MkdirTemp(stateDir, "sweep-")
	if err != nil {
		return nil, err
	}
	env := &sweepEnv{dir: dir, fleet: make([]*server, sweepWorkers), journalPath: filepath.Join(dir, "sweep.journal")}
	errs := make([]error, sweepWorkers)
	var wg sync.WaitGroup
	for i := range env.fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := b.tr.begin("server.spawn", sp)
			env.fleet[i], errs[i] = spawnServer(ctx, b.cfg.gdpsim, "-jobs", "1")
			s.end()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		env.close()
		return nil, err
	}
	for _, s := range env.fleet {
		env.urls = append(env.urls, s.url)
	}
	cache, err := gdp.NewDiskResultCache(filepath.Join(dir, "cache"))
	if err == nil {
		env.e, err = gdp.NewEngine(gdp.WithJobs(2), gdp.WithCache(cache))
	}
	if err == nil {
		env.jnl, err = experiments.OpenSweepJournal(env.journalPath, false)
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// close stops the fleet and removes the operation's files.
func (env *sweepEnv) close() {
	for _, s := range env.fleet {
		s.stop()
	}
	if env.jnl != nil {
		_ = env.jnl.Close() // a second Close after the sweep's is harmless
	}
	os.RemoveAll(env.dir)
}

// sweepOnce runs one fleet sweep and returns it with the fleet's prefix runs.
func (b *bench) sweepOnce(ctx context.Context, traced bool, acc *layerAcc, ref []byte) (opResult, float64) {
	var r opResult
	freeHeap()
	var sp *spanRef
	if traced {
		sp = b.tr.begin("sweep", nil)
	}
	t0 := time.Now()
	env, err := b.sweepSetup(ctx, sp)
	r.setup = time.Since(t0)
	if err != nil {
		r.err = err
		return r, 0
	}
	defer env.close()
	e, fleet := env.e, env.fleet
	opts := sweepOptions(b.cfg.seed, sweepWarmup)
	opts.Journal = env.jnl

	before := engineMetrics(e)
	workerBefore, err := fleetMetrics(ctx, fleet)
	if err != nil {
		r.err = err
		return r, 0
	}
	var allocBefore []float64
	var profiles [][]byte
	var profWG sync.WaitGroup
	if traced {
		for _, s := range fleet {
			a, err := s.totalAlloc(ctx)
			if err != nil {
				r.err = err
				return r, 0
			}
			allocBefore = append(allocBefore, a)
		}
		// Profile each worker for about as long as the sweep runs: the
		// traced run's first, untraced operation sized it.
		secs := int(math.Ceil(acc.spanHint)) + 1
		profiles = make([][]byte, len(fleet))
		for i, s := range fleet {
			profWG.Add(1)
			go func() {
				defer profWG.Done()
				profiles[i], _ = s.profile(ctx, secs) // a lost profile only loses attribution
			}()
		}
	}
	allocSelf := totalAlloc()
	rss := startRSSSampler()
	var res *gdp.SweepResult
	run := func() error {
		var err error
		res, err = e.SweepWorkers(ctx, opts, env.urls)
		return err
	}
	t1 := time.Now()
	if traced {
		call := b.tr.begin("Engine.SweepWorkers", sp)
		r.err = cpuProfile(acc, run)
		call.end()
	} else {
		r.err = run()
	}
	r.wall = time.Since(t1)
	r.rssMB = rss.end()
	if cerr := env.jnl.Close(); cerr != nil && r.err == nil {
		r.err = cerr
	}
	if r.err == nil {
		out, err := sweepOutput(res)
		switch {
		case err != nil:
			r.err = err
		case !bytes.Equal(out, ref):
			r.err = errors.New("sweep rows differ from the serial reference")
		}
	}

	coord := engineMetrics(e).delta(before)
	workerAfter, err := fleetMetrics(ctx, fleet)
	if err != nil && r.err == nil {
		r.err = err
	}
	workers := workerAfter.delta(workerBefore)
	// Fleet validity guard: every cell must have been simulated by a worker.
	if n := coord.sum("gdpsim_dispatch_cells_total", `outcome="local"`) + coord.sum("gdpsim_dispatch_cells_total", `outcome="cached"`); n > 0 {
		b.rep.markInvalid("sweep-fleet: %.0f cells ran locally or came from the cache instead of the fleet", n)
	}
	if n := workers.sum("gdpsim_http_requests_total", `endpoint="/v1/cells"`, `code="4`); n > 0 {
		b.rep.markInvalid("sweep-fleet: the workers answered %.0f /v1/cells requests with 4xx", n)
	}
	for _, s := range fleet {
		mb, err := s.peakRSSMB()
		if err != nil && r.err == nil {
			r.err = err
		}
		r.rssMB += mb
	}
	fleetCounts := promSnap{}
	fleetCounts.add(workers)
	fleetCounts.add(coord)
	r.counts = countsFrom(fleetCounts, "sim.cycles", "sim.runs", "checkpoint.prefix_runs",
		"checkpoint.forks", "checkpoint.cold_fallbacks", "dispatch.cells_remote")

	if !traced {
		acc.spanHint = r.wall.Seconds()
		return r, 0
	}
	sp.end()
	profWG.Wait()
	for _, p := range profiles {
		if p != nil {
			if err := acc.fold.add(p); err != nil {
				fmt.Fprintln(os.Stderr, "gdpbench: worker profile:", err)
			}
		}
	}
	for i, s := range fleet {
		if a, err := s.totalAlloc(ctx); err == nil {
			acc.allocBytes += a - allocBefore[i]
		}
	}
	acc.allocBytes += totalAlloc() - allocSelf
	acc.prom.add(fleetCounts)
	acc.width = sweepWorkers
	emitSweepLayers(b.rep, coord, workers, env.journalPath)
	return r, workers.sum("gdpsim_checkpoint_prefix_runs_total")
}

// fleetMetrics scrapes every worker and sums their series.
func fleetMetrics(ctx context.Context, fleet []*server) (promSnap, error) {
	sum := promSnap{}
	for _, s := range fleet {
		m, err := s.metrics(ctx)
		if err != nil {
			return nil, err
		}
		sum.add(m)
	}
	return sum, nil
}

// emitSweepLayers reports the dispatch and journal metrics of one traced
// sweep.
func emitSweepLayers(rep *report, coord, workers promSnap, journalPath string) {
	cells := func(outcome string) float64 {
		return coord.sum("gdpsim_dispatch_cells_total", `outcome="`+outcome+`"`)
	}
	rep.set("dispatch.cells_remote", cells("completed"), 1)
	rep.set("dispatch.cells_local", cells("local"), 1)
	rep.set("dispatch.cells_stolen", cells("stolen"), 1)
	rep.set("dispatch.cells_retried", cells("retried"), 1)
	rep.set("dispatch.useful_ratio", ratio(cells("completed"), cells("dispatched")), 1)
	perBatch := coord.histQuantile("gdpsim_dispatch_worker_seconds", 0.5)
	cellsPerBatch := ratio(cells("dispatched"), coord.sum("gdpsim_dispatch_batches_total"))
	rep.set("dispatch.worker_cell_p50_s", ratio(perBatch, cellsPerBatch), 1)
	if lr, err := journal.Load(journalPath); err == nil {
		rep.set("journal.records", float64(lr.Count), 1)
	}
	if fi, err := os.Stat(journalPath); err == nil {
		rep.set("journal.mb", float64(fi.Size())/(1<<20), 1)
	}
}
