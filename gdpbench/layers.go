package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	gdp "repro"
)

// profiledLayers are the layers whose profile self time is reported as
// <layer>.self_s. wire.self_s adds the standard library's HTTP and JSON code
// to the service and dispatch layers; other.self_s is everything else (the
// benchmark itself, configuration, telemetry, the rest of the standard
// library).
var profiledLayers = []string{
	"service", "experiments", "runner", "dispatch", "journal", "sim", "cpu",
	"memsys", "dram", "accounting", "trace", "runtime", "other",
}

// barrierSampleStride is the parallel driver's barrier-wait sampling stride:
// it times every 512th barrier (internal/sim/parallel.go), so the histogram's
// sum times the stride estimates the total wait.
const barrierSampleStride = 512

// layerAcc accumulates one traced run's per-layer evidence over its traced
// operations: telemetry deltas summed over every process under test, CPU
// profiles folded by layer, heap allocation, and the time spent inside the
// measured calls.
type layerAcc struct {
	prom        promSnap
	fold        *profileFold
	allocBytes  float64
	spanSeconds float64 // wall time inside the measured calls
	ops         int     // traced operations
	width       float64 // runner pool width of the processes under test
	spanHint    float64 // an untraced operation's wall time, to size server profiles
}

func newLayerAcc() *layerAcc { return &layerAcc{prom: promSnap{}, fold: newProfileFold()} }

// emit reports the per-layer metrics every workload shares. Counts and self
// times are per traced operation.
func (a *layerAcc) emit(rep *report) {
	p, n := a.prom, a.ops
	per := func(x float64) float64 { return ratio(x, float64(n)) }
	cycles := p.sum("gdpsim_sim_cycles_total")
	rep.set("sim.cycles", per(cycles), n)
	rep.set("sim.runs", per(p.sum("gdpsim_sim_runs_total")), n)
	rep.set("sim.processed_ratio", ratio(cycles-p.sum("gdpsim_sim_fastforwarded_cycles_total"), cycles), n)
	rep.set("sim.ns_per_cycle", ratio(a.spanSeconds*1e9, cycles), n)
	rep.set("sim.barrier_wait_share", ratio(p.sum("gdpsim_sim_barrier_wait_seconds_sum")*barrierSampleStride, a.spanSeconds), n)
	for _, l := range profiledLayers {
		rep.set(l+".self_s", per(a.fold.seconds(l)), n)
	}
	rep.set("wire.self_s", per(a.fold.seconds("service")+a.fold.seconds("dispatch")+a.fold.seconds("stdwire")), n)
	rep.set("runtime.gc_s", per(float64(a.fold.gcNanos)/1e9), n)
	rep.set("runtime.alloc_mb", per(a.allocBytes/(1<<20)), n)
	rep.set("runner.jobs", per(p.sum("gdpsim_runner_jobs_total")), n)
	rep.set("runner.busy_share", ratio(p.sum("gdpsim_runner_job_seconds_sum"), a.width*a.spanSeconds), n)
	hits := p.sum("gdpsim_cache_hits_total")
	rep.set("cache.hit_ratio", ratio(hits, hits+p.sum("gdpsim_cache_misses_total")), n)
	rep.set("cache.inflight_joins", per(p.sum("gdpsim_cache_inflight_joins_total")), n)
	rep.set("cache.evictions", per(p.sum("gdpsim_cache_evictions_total")), n)
	rep.set("cache.disk_mb_written", per(p.sum("gdpsim_cache_disk_bytes_written_total")/(1<<20)), n)
	forks, fallbacks := p.sum("gdpsim_checkpoint_forks_total"), p.sum("gdpsim_checkpoint_cold_fallbacks_total")
	rep.set("checkpoint.prefix_runs", per(p.sum("gdpsim_checkpoint_prefix_runs_total")), n)
	rep.set("checkpoint.forks", per(forks), n)
	rep.set("checkpoint.cold_fallbacks", per(fallbacks), n)
	rep.set("checkpoint.fork_ratio", ratio(forks, forks+fallbacks), n)
	rep.set("http.shed", per(p.sum("gdpsim_http_shed_total")), n)
	rep.set("http.client_gone", per(p.sum("gdpsim_http_client_gone_total")), n)
	rep.set("coalesce.joined", per(p.sum("gdpsim_coalesce_joined_total")), n)
}

// engineMetrics scrapes an in-process Engine's telemetry registry.
func engineMetrics(e *gdp.Engine) promSnap {
	var buf bytes.Buffer
	_ = e.MetricsRegistry().WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	return parseProm(buf.Bytes())
}

// totalAlloc is this process's cumulative heap allocation in bytes.
func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// cpuProfile profiles this process while fn runs and folds the profile into
// acc. fn's error is returned; a profiling failure only loses the profile.
func cpuProfile(acc *layerAcc, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fn()
	}
	err := fn()
	pprof.StopCPUProfile()
	if perr := acc.fold.add(buf.Bytes()); perr != nil {
		fmt.Fprintln(os.Stderr, "gdpbench: in-process profile:", perr)
	}
	return err
}

// detCounts are the counts a speed-only change must leave exactly unchanged
// for a given seed: they depend on the model and the inputs, not on timing.
type detCounts map[string]float64

func (c detCounts) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.0f", k, c[k])
	}
	return strings.Join(parts, " ")
}

// checkRepeat verifies that every operation of the run produced the same
// deterministic counts, and that they match the counts an earlier run of the
// same build recorded for the same seed. A mismatch makes the run invalid.
func (b *bench) checkRepeat(ops []detCounts) {
	if len(ops) == 0 {
		return
	}
	first := ops[0].String()
	for i, c := range ops[1:] {
		if c.String() != first {
			b.rep.markInvalid("deterministic counts differ between operations: op 0 {%s}, op %d {%s}", first, i+1, c)
			return
		}
	}
	for k, v := range ops[0] {
		b.rep.set("count."+k, v, len(ops))
	}
	path := filepath.Join(stateDir, "counts", fmt.Sprintf("%s-%s-seed%d.txt", b.wl.name, cacheKey(b.cfg), b.cfg.seed))
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != first {
			b.rep.markInvalid("deterministic counts {%s} differ from an earlier run of this seed {%s}", first, prev)
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		_ = os.WriteFile(path, []byte(first), 0o644) // a lost record only skips the cross-run check
	}
}

// countsFrom extracts the deterministic counts from one operation's
// telemetry delta.
func countsFrom(p promSnap, keys ...string) detCounts {
	c := detCounts{}
	for _, k := range keys {
		switch k {
		case "sim.cycles":
			c[k] = p.sum("gdpsim_sim_cycles_total")
		case "sim.runs":
			c[k] = p.sum("gdpsim_sim_runs_total")
		case "checkpoint.prefix_runs":
			c[k] = p.sum("gdpsim_checkpoint_prefix_runs_total")
		case "checkpoint.forks":
			c[k] = p.sum("gdpsim_checkpoint_forks_total")
		case "checkpoint.cold_fallbacks":
			c[k] = p.sum("gdpsim_checkpoint_cold_fallbacks_total")
		case "dispatch.cells_remote":
			c[k] = p.sum("gdpsim_dispatch_cells_total", `outcome="completed"`)
		}
	}
	return c
}
