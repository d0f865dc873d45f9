package main

import (
	"context"
	"encoding/json"

	gdp "repro"
)

// run-manycore: one 32-core "phased" scenario run through Engine.Run on the
// parallel driver (two simulation workers) with GDP-O attached — the only
// workload on sim's parallel driver.
const (
	manycoreCores        = 32
	manycoreScenario     = "phased"
	manycoreInstructions = 1500
	manycoreInterval     = 2000
	manycorePRB          = 32
	manycoreSimWorkers   = 2
)

// manycoreOptions builds the run's inputs: the 32-core configuration, the
// scenario's workload and a fresh GDP-O accountant.
func manycoreOptions(seed int64) (gdp.SimOptions, error) {
	sc, err := gdp.ScenarioByName(manycoreScenario)
	if err != nil {
		return gdp.SimOptions{}, err
	}
	wl, err := sc.Workload(manycoreCores)
	if err != nil {
		return gdp.SimOptions{}, err
	}
	acct, err := gdp.NewGDPO(manycoreCores, manycorePRB)
	if err != nil {
		return gdp.SimOptions{}, err
	}
	return gdp.SimOptions{
		Config:              gdp.ScaledConfig(manycoreCores),
		Workload:            wl,
		InstructionsPerCore: manycoreInstructions,
		IntervalCycles:      manycoreInterval,
		Seed:                seed,
		Accountants:         []gdp.Accountant{acct},
	}, nil
}

func manycoreOutput(r *gdp.SimResult) ([]byte, error) { return json.Marshal(r) }

func manycoreReference(ctx context.Context, seed int64) ([]byte, error) {
	e, err := gdp.NewEngine(gdp.WithSimWorkers(1))
	if err != nil {
		return nil, err
	}
	opts, err := manycoreOptions(seed)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(ctx, opts)
	if err != nil {
		return nil, err
	}
	return manycoreOutput(res)
}

func runManycore(ctx context.Context, b *bench) error {
	return b.runInProcess(ctx, "Engine.Run", 1, func() (*gdp.Engine, func(context.Context) ([]byte, error), error) {
		e, err := gdp.NewEngine(gdp.WithSimWorkers(manycoreSimWorkers))
		if err != nil {
			return nil, nil, err
		}
		opts, err := manycoreOptions(b.cfg.seed)
		return e, func(ctx context.Context) ([]byte, error) {
			res, err := e.Run(ctx, opts)
			if err != nil {
				return nil, err
			}
			return manycoreOutput(res)
		}, err
	})
}
