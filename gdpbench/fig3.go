package main

import (
	"context"
	"encoding/json"

	gdp "repro"
)

// fig3-cold: Engine.Figure3 from an empty in-memory cache, two jobs wide.
// Every operation builds a fresh Engine, so no private-mode reference run is
// shared across operations.
const (
	fig3Workloads    = 6
	fig3Instructions = 700
	fig3Interval     = 1000
	fig3Jobs         = 2
)

func fig3Scale(seed int64) gdp.StudyScale {
	return gdp.StudyScale{
		WorkloadsPerCell:    fig3Workloads,
		InstructionsPerCore: fig3Instructions,
		IntervalCycles:      fig3Interval,
		Seed:                seed,
		CoreCounts:          []int{2, 4},
	}
}

// fig3Output is the figure's rendered table followed by every number behind
// it: the bar groups and each accuracy study's per-technique and
// per-component errors (the studies' options, which hold callbacks, are left
// out).
func fig3Output(r *gdp.Figure3Result) ([]byte, error) {
	type study struct {
		Label      string
		Techniques any
		Components any
	}
	raw := make([]study, len(r.Raw))
	for i, a := range r.Raw {
		raw[i] = study{a.Label, a.Techniques, a.Components}
	}
	data, err := json.Marshal(struct {
		Cells any
		Raw   []study
	}{r.Cells, raw})
	if err != nil {
		return nil, err
	}
	return append([]byte(r.Render()), data...), nil
}

func fig3Reference(ctx context.Context, seed int64) ([]byte, error) {
	e, err := gdp.NewEngine(gdp.WithJobs(1))
	if err != nil {
		return nil, err
	}
	res, err := e.Figure3(ctx, fig3Scale(seed))
	if err != nil {
		return nil, err
	}
	return fig3Output(res)
}

func runFig3(ctx context.Context, b *bench) error {
	scale := fig3Scale(b.cfg.seed)
	return b.runInProcess(ctx, "Engine.Figure3", fig3Jobs, func() (*gdp.Engine, func(context.Context) ([]byte, error), error) {
		e, err := gdp.NewEngine(gdp.WithJobs(fig3Jobs), gdp.WithScale(scale))
		return e, func(ctx context.Context) ([]byte, error) {
			res, err := e.Figure3(ctx, scale)
			if err != nil {
				return nil, err
			}
			return fig3Output(res)
		}, err
	})
}
