package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"time"

	gdp "repro"
)

// minBatchOps is the fewest operations a batch run measures, even when one
// operation outlasts the measurement window.
const minBatchOps = 3

// setupSamples is how many extra set-ups a run times before its operations,
// so that set-up time is the median of many samples even when the
// operations are few.
const setupSamples = 10

// opResult is one operation of a batch workload (a figure, a sweep or a run).
type opResult struct {
	setup  time.Duration // until the system under test accepts work
	wall   time.Duration // the operation itself
	rssMB  float64       // peak RSS of the processes under test during the operation
	counts detCounts     // deterministic counts of the operation
	err    error         // failed, refused or wrong output
}

// batchOp runs one operation; traced operations also feed acc.
type batchOp func(ctx context.Context, traced bool, acc *layerAcc) opResult

// runBatch times setupSamples set-ups (setup returns the teardown), then
// repeats op until the measurement window is spent and reports the
// end-to-end metrics, or — on a traced run — the per-layer metrics. A traced
// run measures its first operation untraced, as the baseline of
// tracing.overhead_ratio.
func (b *bench) runBatch(ctx context.Context, setup func(context.Context) (func(), error), op batchOp) error {
	setups, err := timeSetups(ctx, setup)
	if err != nil {
		return err
	}
	acc := newLayerAcc()
	var walls, rss, tracedWalls []float64
	var counts []detCounts
	var untraced float64
	okOps := 0
	busy := 0.0
	b.startWindow()
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		traced := b.tr != nil && i > 0
		t0 := time.Now()
		r := op(ctx, traced, acc)
		b.rep.op(r.err)
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		busy += r.wall.Seconds()
		if r.err == nil {
			okOps++
		}
		rss = append(rss, r.rssMB)
		if r.counts != nil {
			counts = append(counts, r.counts)
		}
		if traced {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
			acc.ops++
			acc.spanSeconds += r.wall.Seconds()
		} else if b.tr != nil {
			untraced = r.wall.Seconds()
		}
		last := time.Since(t0)
		enough := i+1 >= minBatchOps && (b.tr == nil || len(tracedWalls) > 0)
		if enough && !b.timeLeft(last) {
			break
		}
	}
	b.checkRepeat(counts)
	if b.tr != nil {
		acc.emit(b.rep)
		b.rep.set("tracing.overhead_ratio", ratio(median(tracedWalls), untraced), len(tracedWalls))
		return nil
	}
	n := len(walls)
	b.rep.set("setup_s", median(setups), len(setups))
	b.rep.set("wall_s", median(walls), n)
	// A batch workload has one operation at a time and one load level: its
	// latency quantiles are those of the operation, under both step names.
	for _, step := range []string{"light", "heavy"} {
		b.rep.set("lat_p50_ms."+step, 1000*quantile(walls, 0.5), n)
		b.rep.set("lat_p90_ms."+step, 1000*quantile(walls, 0.9), n)
	}
	b.rep.set("estimate_rps.sat", ratio(float64(okOps), busy), n)
	b.rep.set("ok_ratio", ratio(float64(okOps), float64(n)), n)
	b.rep.set("peak_rss_mb", median(rss), len(rss))
	return nil
}

// timeSetups times setupSamples set-ups, tearing each down before the next.
func timeSetups(ctx context.Context, setup func(context.Context) (func(), error)) ([]float64, error) {
	var out []float64
	for i := 0; i < setupSamples; i++ {
		freeHeap()
		t0 := time.Now()
		teardown, err := setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
		teardown()
	}
	return out, nil
}

// engineSetup builds an in-process workload's Engine and call.
type engineSetup func() (*gdp.Engine, func(context.Context) ([]byte, error), error)

// runInProcess runs an in-process batch workload: every operation builds a
// fresh Engine with setup and runs its call, named span in traces.
func (b *bench) runInProcess(ctx context.Context, span string, width float64, setup engineSetup) error {
	ref, err := b.loadReference(ctx)
	if err != nil {
		return err
	}
	timed := func(context.Context) (func(), error) {
		_, _, err := setup()
		return func() {}, err
	}
	return b.runBatch(ctx, timed, func(ctx context.Context, traced bool, acc *layerAcc) opResult {
		return b.inProcessOp(ctx, traced, acc, span, width, ref, setup)
	})
}

// inProcessOp runs one operation of an in-process workload. setup builds the
// Engine and the call (timed as set-up); the call's output is compared with
// the reference. Traced operations are profiled and feed acc; width is the
// Engine's runner pool width.
func (b *bench) inProcessOp(ctx context.Context, traced bool, acc *layerAcc, span string, width float64,
	ref []byte, setup engineSetup) opResult {
	var r opResult
	freeHeap()
	t0 := time.Now()
	e, call, err := setup()
	r.setup = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	before := engineMetrics(e)
	alloc := totalAlloc()
	var out []byte
	run := func() error {
		var err error
		out, err = call(ctx)
		return err
	}
	rss := startRSSSampler()
	t1 := time.Now()
	if traced {
		sp := b.tr.begin(span, nil)
		r.err = cpuProfile(acc, run)
		sp.end()
	} else {
		r.err = run()
	}
	r.wall = time.Since(t1)
	r.rssMB = rss.end()
	delta := engineMetrics(e).delta(before)
	r.counts = countsFrom(delta, "sim.cycles", "sim.runs")
	if traced {
		acc.prom.add(delta)
		acc.allocBytes += totalAlloc() - alloc
		acc.width = width
	}
	if r.err == nil && !bytes.Equal(out, ref) {
		r.err = fmt.Errorf("%s output differs from the serial reference", span)
	}
	return r
}

// freeHeap collects garbage and returns freed memory to the OS, so every
// operation starts from the same heap and its peak RSS is its own.
func freeHeap() { debug.FreeOSMemory() }
