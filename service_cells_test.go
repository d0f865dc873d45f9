package gdp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// slowCells returns n accuracy cells of a few hundred milliseconds each.
// Distinct seeds give each cell its own workload, so no cell is answered from
// another's cached simulations.
func slowCells(n int, instructions uint64) []dispatch.CellEnvelope {
	cells := make([]dispatch.CellEnvelope, n)
	for i := range cells {
		cells[i] = dispatch.CellEnvelope{Index: i, Cell: experiments.Cell{
			Kind: experiments.CellKindAccuracy, Cores: 2, Mix: "H", PRB: 16,
			Seed: int64(i + 1), Workloads: 1, InstructionsPerCore: instructions,
			IntervalCycles: 2000, Techniques: []string{"GDP"},
		}}
	}
	return cells
}

// TestCellsStreamEachCellAsItFinishes: on a one-cell-at-a-time worker, the
// headers arrive at once and the first result line arrives while the other
// two cells still run — at least one cell's run time before the done line.
func TestCellsStreamEachCellAsItFinishes(t *testing.T) {
	ts, _ := newWorker(t, WithJobs(1))
	body, err := json.Marshal(dispatch.CellsRequest{APIVersion: dispatch.ProtocolVersion, Cells: slowCells(3, 10000)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	headers := time.Now()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var arrivals []time.Time
	var done dispatch.CellResult
	rd := bufio.NewReader(resp.Body)
	for !done.Done {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream ended after %d lines: %v", len(arrivals), err)
		}
		arrivals = append(arrivals, time.Now())
		var res dispatch.CellResult
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Done && (res.Error != "" || len(res.Rows) == 0) {
			t.Fatalf("cell %d: %+v", res.Index, res)
		}
		done = res
	}
	if len(arrivals) != 4 || done.Completed != 3 {
		t.Fatalf("got %d lines, done line %+v; want 3 results and a done line", len(arrivals), done)
	}
	first, last := arrivals[0], arrivals[len(arrivals)-1]
	firstCell := first.Sub(headers) // the worker runs one cell at a time
	t.Logf("headers %v, first line +%v, done line +%v", headers.Sub(start), firstCell, last.Sub(headers))
	if gap := last.Sub(first); gap < firstCell {
		t.Errorf("first result line came %v before the done line, less than one cell's run time (%v): the stream is not flushed per cell", gap, firstCell)
	}
}

// TestCellsSlowBatchWithinHeaderTimeout: a batch that runs far longer than
// the dispatcher's response-header timeout must not count as a failing
// worker — the worker answers headers before it runs the first cell.
func TestCellsSlowBatchWithinHeaderTimeout(t *testing.T) {
	const headerTimeout = 250 * time.Millisecond
	ts, _ := newWorker(t, WithJobs(1))
	metrics := dispatch.NewMetrics(telemetry.NewRegistry())
	pool, err := dispatch.NewPool(dispatch.Options{
		Workers:               []string{ts.URL},
		BatchSize:             3,
		LocalJobs:             1,
		ResponseHeaderTimeout: headerTimeout,
		Metrics:               metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cells []experiments.Cell
	for _, env := range slowCells(3, 30000) {
		cells = append(cells, env.Cell)
	}
	start := time.Now()
	local := func(ctx context.Context, c experiments.Cell) ([]SweepRow, error) {
		return nil, fmt.Errorf("cell %s ran locally", c.Label())
	}
	if _, err := pool.Run(t.Context(), cells, dispatch.RunConfig{Local: local}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < headerTimeout {
		t.Fatalf("batch took %v, no longer than the header timeout: the test proves nothing", elapsed)
	}
	if n := metrics.WorkerFailures.With(ts.URL).Value(); n != 0 {
		t.Errorf("worker_failures = %d, want 0 for a batch of %v", n, elapsed)
	}
	if n := metrics.Cells.With("retried").Value(); n != 0 {
		t.Errorf("retried cells = %d, want 0", n)
	}
	if n := metrics.Cells.With("completed").Value(); n != 3 {
		t.Errorf("completed cells = %d, want 3", n)
	}
}

// TestCellsDispatcherCancelStopsWorker: cancelling a fleet sweep mid-batch
// disconnects the worker's stream, and the worker stops simulating instead
// of finishing a batch nobody will read.
func TestCellsDispatcherCancelStopsWorker(t *testing.T) {
	ts, worker := newWorker(t, WithJobs(1))
	engine, err := NewEngine(WithScale(dispatchTestScale()))
	if err != nil {
		t.Fatal(err)
	}
	opts := dispatchTestSweep()
	opts.Mixes = opts.Mixes[:1]
	opts.PRBSizes = opts.PRBSizes[:1]
	opts.InstructionsPerCore = 1_000_000 // tens of seconds uncancelled
	active := worker.dispatchSrv.activeBatches

	ctx, cancel := context.WithCancel(t.Context())
	errc := make(chan error, 1)
	go func() {
		_, err := engine.SweepWorkers(ctx, opts, []string{ts.URL})
		errc <- err
	}()
	waitFor := func(what string, d time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(d)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s not within %v", what, d)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("batch running on the worker", 30*time.Second, func() bool { return active.Value() == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	waitFor("worker gdpsim_dispatch_active_batches back to 0", 5*time.Second, func() bool { return active.Value() == 0 })
}
