package gdp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// errCellPanic marks a cell whose execution panicked. The panic is contained
// to that one cell: the worker process survives, and the dispatcher is told
// the cell is retryable (a panic on this worker says nothing about the cell —
// fault injection, a corrupted cache shard, or a worker-local bug can all
// produce one, and the cell may well succeed elsewhere).
var errCellPanic = errors.New("cell execution panicked")

// Worker wire protocol (the server side of internal/dispatch): one request
// per batch.
//
//	POST /v1/cells  dispatch.CellsRequest -> NDJSON stream of dispatch.CellResult
//
// The handler validates and admits the batch, then answers 200 and flushes
// the headers at once, so a batch of any length never trips the
// dispatcher's response-header timeout. Each cell's result line is written
// and flushed the moment the cell finishes (completion order — the
// dispatcher merges by index), and a terminal done line closes the stream.
// The cells run under the request's context: a dispatcher that disconnects
// stops the batch. Each cell runs through the engine's two-layer cache under
// its spec key — a repeated cell (from any dispatcher, or from this worker's
// own local sweeps) is answered without re-simulation.

const (
	// maxActiveCellBatches bounds concurrently executing batches; excess
	// POSTs shed with 503 like the JSON endpoints.
	maxActiveCellBatches = 8
	// cellBatchMaxAge hard-caps a batch's lifetime, execution included.
	cellBatchMaxAge = 30 * time.Minute
)

// dispatchServerMetrics instruments the worker side of the protocol.
type dispatchServerMetrics struct {
	servedCells   *telemetry.CounterVec
	servedBatches *telemetry.Counter
	activeBatches *telemetry.Gauge
}

func newDispatchServerMetrics(r *telemetry.Registry) *dispatchServerMetrics {
	return &dispatchServerMetrics{
		servedCells: r.CounterVec("gdpsim_dispatch_served_cells_total",
			"Cells executed for remote dispatchers, by outcome.", "outcome"),
		servedBatches: r.Counter("gdpsim_dispatch_served_batches_total",
			"Cell batches completed for remote dispatchers."),
		activeBatches: r.Gauge("gdpsim_dispatch_active_batches",
			"Cell batches currently executing."),
	}
}

// validateCell applies the service work-size limits on top of the cell's own
// structural validation: a worker bounds how much simulation one dispatched
// cell may demand exactly like a direct request.
func validateCell(c experiments.Cell) error {
	if err := c.Validate(); err != nil {
		return badRequestErr(err)
	}
	if c.Cores > maxServiceCores {
		return badRequestf("cell core count %d out of range (1..%d)", c.Cores, maxServiceCores)
	}
	if err := checkWorkSize(c.InstructionsPerCore, c.IntervalCycles, c.Workloads); err != nil {
		return err
	}
	if c.PRB > maxServicePRBEntries {
		return badRequestf("cell prb size %d out of range (1..%d)", c.PRB, maxServicePRBEntries)
	}
	if c.WarmupIntervals < 0 || c.WarmupIntervals > maxServiceWarmupIntervals {
		return badRequestf("cell warmup_intervals = %d out of range (0..%d)", c.WarmupIntervals, maxServiceWarmupIntervals)
	}
	for _, prb := range c.CoPRBSizes {
		if prb <= 0 || prb > maxServicePRBEntries {
			return badRequestf("cell co_prb_sizes entry %d out of range (1..%d)", prb, maxServicePRBEntries)
		}
	}
	return nil
}

// handleCellsPost validates and admits one batch of cells, then streams its
// results on the same response.
func (s *Server) handleCellsPost(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req dispatch.CellsRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if req.APIVersion != dispatch.ProtocolVersion {
		writeError(w, http.StatusBadRequest,
			"unsupported api_version \""+req.APIVersion+"\" (this worker speaks \""+dispatch.ProtocolVersion+"\")")
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Cells) > maxSweepCells {
		writeError(w, http.StatusBadRequest, "batch exceeds the cell limit")
		return
	}
	for _, env := range req.Cells {
		if env.Index < 0 {
			writeError(w, http.StatusBadRequest, "negative cell index")
			return
		}
		if err := validateCell(env.Cell); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	select {
	case s.batchSlots <- struct{}{}:
		defer func() { <-s.batchSlots }()
	default:
		s.metrics.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "batch limit reached")
		return
	}
	s.dispatchSrv.activeBatches.Inc()
	defer s.dispatchSrv.activeBatches.Dec()
	s.streamCellBatch(w, r, req.Cells)
}

// streamCellBatch runs a batch on the server's cell semaphore and writes one
// flushed NDJSON line per cell the moment it finishes, then the done line.
// Cells flow through the engine cache under their spec keys, so repeats are
// answered without simulation and local sweeps on this worker reuse
// dispatched results.
func (s *Server) streamCellBatch(w http.ResponseWriter, r *http.Request, cells []dispatch.CellEnvelope) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if rc.Flush() != nil {
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), cellBatchMaxAge)
	cfg := experiments.CellConfig{Cache: s.engine.Cache(), Instr: s.engine.instr}
	results := make(chan dispatch.CellResult, len(cells))
	pending := len(cells)
	// Every cell sends exactly once into a channel with room for all of
	// them. Receiving the rest here, on every way out (a cut connection may
	// panic out of Write with http.ErrAbortHandler), means no cell outlives
	// its request.
	defer func() {
		cancel()
		for ; pending > 0; pending-- {
			<-results
		}
	}()
	for _, env := range cells {
		go func() { results <- s.runCell(ctx, cfg, env) }()
	}

	done := dispatch.CellResult{Done: true}
	connected := true
	for pending > 0 {
		res := <-results
		pending--
		if res.Error == "" {
			done.Completed++
		} else {
			done.Failed++
		}
		if connected && !writeResultLine(w, rc, res) {
			connected = false
			cancel() // nobody is reading: stop the remaining cells
		}
	}
	if connected && writeResultLine(w, rc, done) {
		s.dispatchSrv.servedBatches.Inc()
	}
}

// writeResultLine writes and flushes one NDJSON result line, reporting
// whether the dispatcher is still reading.
func writeResultLine(w http.ResponseWriter, rc *http.ResponseController, res dispatch.CellResult) bool {
	raw, err := json.Marshal(res)
	if err != nil {
		raw, _ = json.Marshal(dispatch.CellResult{Index: res.Index, Error: err.Error()})
	}
	if _, err := w.Write(append(raw, '\n')); err != nil {
		return false
	}
	return rc.Flush() == nil
}

// runCell executes one dispatched cell and classifies its outcome for the
// dispatcher.
func (s *Server) runCell(ctx context.Context, cfg experiments.CellConfig, env dispatch.CellEnvelope) dispatch.CellResult {
	res := dispatch.CellResult{Index: env.Index}
	key, err := runner.SpecKey(env.Cell.Spec())
	if err == nil {
		res.SpecKey = key
		select {
		case s.cellSem <- struct{}{}:
			// The recover lives inside the memoized function: the cache
			// layer re-panics on a panicking compute, so this is the only
			// place a cell's panic can be converted into an error before it
			// unwinds the cell goroutine and kills the process.
			res.Rows, _, err = runner.MemoKeyedContext(ctx, cfg.Cache, key, func() (rows []SweepRow, err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("%w: %v", errCellPanic, r)
					}
				}()
				if ferr := faultinject.Fire(faultinject.PointCellExec); ferr != nil {
					return nil, ferr
				}
				return env.Cell.Run(ctx, cfg)
			})
			<-s.cellSem
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	outcome := "completed"
	switch {
	case err == nil:
	case errors.Is(err, errCellPanic):
		res.Rows, res.Error, res.Retryable = nil, err.Error(), true
		outcome = "panic"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The worker is giving up (dispatcher gone, batch age cap), not the
		// cell itself: tell the dispatcher to reschedule elsewhere instead
		// of failing the whole sweep.
		res.Rows, res.Error, res.Retryable = nil, err.Error(), true
		outcome = "failed"
	default:
		res.Rows, res.Error = nil, err.Error()
		outcome = "failed"
	}
	s.dispatchSrv.servedCells.With(outcome).Inc()
	return res
}
