package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"duet/internal/core"
	"duet/internal/exec"
	"duet/internal/obs"
	"duet/internal/registry"
	"duet/internal/relation"
)

const (
	dmvRows    = 5000
	dmvEpochs  = 1
	dmvBatch   = 64
	dmvCallers = 2
	// dmvPool distinct queries: 32 times the engine's 4096-entry cache, so
	// a query recurs only after every other one has been evicted.
	dmvPool = 1 << 17
)

type dmvState struct {
	table  *relation.Table
	model  *core.Model
	reg    *registry.Registry
	epochs []core.EpochStats
}

// runDMV measures batched in-process inference: Registry.EstimateBatch with
// 64 queries per call from 2 closed-loop callers.
func runDMV(o options, chk *checker) (*outcome, error) {
	out := newOutcome()
	var eps []core.EpochStats
	st, setups, err := timedSetups(setupRepeats, func() (*dmvState, error) {
		t := relation.SynDMV(dmvRows, dataSeed)
		m, ep := trainModel(t, core.DefaultConfig(), dmvEpochs)
		eps = append(eps, ep...)
		reg := registry.New(registry.Config{Obs: obs.NewRegistry()})
		if err := reg.Add("dmv", t, m, registry.AddOpts{}); err != nil {
			reg.Close()
			return nil, err
		}
		return &dmvState{table: t, model: m, reg: reg}, nil
	}, func(s *dmvState) { s.reg.Close() })
	if err != nil {
		return nil, err
	}
	defer st.reg.Close()
	out.set("setup_s", median(setups), len(setups))
	tps, n := tuplesPerSec(eps)
	out.set("core.train_tuples_per_s", tps, n)
	ctx := context.Background()
	rows := float64(st.table.NumRows())

	// The probe goes through the workload's own path in 64-query batches and
	// must match one direct batch over the whole set bitwise.
	probe := distinctQueries(st.table, probeSize, -dataSeed, 8)
	exact := exec.Cardinalities(st.table, probe)
	direct := st.model.EstimateCardBatch(probe)
	var got []float64
	for lo := 0; lo < len(probe); lo += dmvBatch {
		hi := min(lo+dmvBatch, len(probe))
		cards, err := st.reg.EstimateBatch(ctx, "dmv", probe[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		got = append(got, cards...)
	}
	bounds := make([]float64, len(probe))
	for i := range bounds {
		bounds[i] = rows
	}
	if err := setQError(out, gradeProbe(chk, got, direct, bounds, exact)); err != nil {
		return nil, err
	}

	pool := shuffled(distinctQueries(st.table, dmvPool, dataSeed, 8), o.seed)
	tracer := newTracer()
	ledgers := make([]*ledger, dmvCallers)
	for c := range ledgers {
		ledgers[c] = newLedger()
	}
	var next atomic.Int64
	call := func(caller int, traced bool) (int, error) {
		i := next.Add(1) - 1
		lo := int(i*dmvBatch) % (len(pool) - dmvBatch + 1)
		qs := pool[lo : lo+dmvBatch]
		cctx := ctx
		var tr *obs.Trace
		if traced {
			cctx, tr = tracer.Start(ctx, "")
		}
		t0 := time.Now()
		cards, err := st.reg.EstimateBatch(cctx, "dmv", qs)
		e2e := since(t0)
		if traced {
			tracer.Finish(tr)
			ledgers[caller].add(e2e, "dmv", spansOf(tracer, tr.ID()))
		}
		if err != nil {
			chk.failf("EstimateBatch: %v", err)
			return 0, err
		}
		for j, c := range cards {
			chk.card(fmt.Sprintf("dmv query %d", lo+j), c, rows)
		}
		return len(qs), nil
	}
	closedLoop(dmvCallers, warmup, func(c int) (int, error) { return call(c, false) })
	before := st.reg.Stats().PerModel["dmv"]
	steal := startSteal()
	plain, traced := measure(o, dmvCallers, call)
	out.stealMS = steal.ms()
	after := st.reg.Stats().PerModel["dmv"]
	out.attempted = plain.calls + traced.calls
	out.failed = plain.failed + traced.failed
	if !o.trace {
		return out, setReadMetrics(out, plain)
	}

	setOverhead(out, plain, traced)
	setEngineCounters(out, before.Stats, after.Stats)
	fwd := newForwardTimer()
	fwd.use("dmv", st.model, pool)
	out.set("core.estimate_batch_us_per_query", fwd.cost(planKey{"dmv", dmvBatch})/dmvBatch, forwardReps(dmvBatch))
	out.set("made.plan_weight_bytes", float64(st.model.WarmPlan()), 1)
	l := newLedger()
	for _, c := range ledgers {
		l.merge(c)
	}
	setEngineLedger(out, l, fwd.cost, nil)
	return out, nil
}
