// Command gdpbench is the repository benchmark. It runs one workload against
// gdpsim built from the same checkout and prints every metric BENCHMARK.json
// names, with its unit and sample count; the last line of standard output is
// the JSON result.
//
// Run it through the wrapper, which builds both programs first:
//
//	bash gdpbench/run.sh --workload fig3-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// repeats the workload with spans, CPU profiles and telemetry deltas and
// reports the per-layer metrics instead. See README.md for the workloads, the
// metric definitions and which end-to-end metric each layer metric moves.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// config holds the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	gdpsim   string // the gdpsim binary built from this checkout
	build    string // digest of the binaries under test (buildKey)
	refOnly  bool   // compute and cache the workload's reference, then exit
}

// stateDir holds everything the benchmark builds and writes, relative to the
// repository root it runs from; gdpbench/run.sh builds gdpsim into it.
const stateDir = ".bench_build"

// workload is one benchmark workload. run measures it (untraced) or traces it
// and records metrics into the report; reference computes the expected
// output for a seed on the plain local serial path.
type workload struct {
	name      string
	run       func(ctx context.Context, b *bench) error
	reference func(ctx context.Context, seed int64) ([]byte, error)
}

var workloads = []workload{
	{name: "fig3-cold", run: runFig3, reference: fig3Reference},
	{name: "sweep-fleet", run: runSweep, reference: sweepReference},
	{name: "estimate-open", run: runEstimate},
	{name: "run-manycore", run: runManycore, reference: manycoreReference},
}

// bench is the state one run shares across its workload code.
type bench struct {
	cfg      config
	deadline time.Time // end of the measurement window
	rep      *report
	tr       *tracer // nil on untraced runs
	wl       workload
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("gdpbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 25, "measurement time")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.refOnly, "ref", false, "compute and cache the workload's reference output, then exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "gdpbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds < 1 || cfg.seconds > 120 {
		fmt.Fprintln(os.Stderr, "gdpbench: --seconds must be 1..120")
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "gdpbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Bound the whole run: the measurement window plus generous room for the
	// reference, set-up and the final checks.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(cfg.seconds)*time.Second+150*time.Second)
	defer cancel()

	var err error
	if cfg.gdpsim, err = filepath.Abs(filepath.Join(stateDir, "bin", "gdpsim")); err != nil {
		fmt.Fprintln(os.Stderr, "gdpbench:", err)
		return 2
	}
	if cfg.build, err = buildKey(cfg.gdpsim); err != nil {
		fmt.Fprintln(os.Stderr, "gdpbench: gdpsim is not built (run gdpbench/run.sh):", err)
		return 2
	}
	if cfg.refOnly {
		if err := writeReference(ctx, cfg, *wl); err != nil {
			fmt.Fprintln(os.Stderr, "gdpbench:", err)
			return 1
		}
		return 0
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdpbench:", err)
		return 2
	}
	b := &bench{cfg: cfg, rep: newReport(), wl: *wl}
	if cfg.trace {
		b.tr = newTracer()
	}
	if err := wl.run(ctx, b); err != nil {
		// The workload could not be measured at all (the program did not
		// build a working server, a reference failed, ...): no result.
		fmt.Fprintf(os.Stderr, "gdpbench: %s: %v\n", wl.name, err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(stateDir, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, cfg.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "gdpbench: writing spans:", err)
		}
	}
	specs := spec.EndToEnd
	if cfg.trace {
		specs = spec.PerLayer
	}
	b.rep.write(os.Stdout, specs, provenance(cfg), !cfg.trace)
	return 0
}

// provenance describes the run's environment for the report header.
func provenance(cfg config) []string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	// A build of a tree with uncommitted changes reports its revision as
	// <rev>+dirty, so a report never passes such a build off as the commit.
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	return []string{
		fmt.Sprintf("workload=%s seed=%d seconds=%d mode=%s", cfg.workload, cfg.seed, cfg.seconds, mode),
		fmt.Sprintf("go=%s nproc=%d GOMAXPROCS=%d GOGC=%s git_revision=%s",
			runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, rev),
	}
}

// startWindow starts the measurement window. Workloads call it once their
// reference is loaded, so computing a reference never eats into the window.
func (b *bench) startWindow() {
	b.deadline = time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
}

// timeLeft reports whether another operation expected to take about d still
// fits in the measurement window.
func (b *bench) timeLeft(d time.Duration) bool {
	return time.Now().Add(d).Before(b.deadline)
}
