package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"duet/internal/core"
	"duet/internal/exec"
	"duet/internal/lifecycle"
	"duet/internal/obs"
	"duet/internal/registry"
	"duet/internal/relation"
	"duet/internal/workload"
)

const (
	censusRows   = 2000
	censusEpochs = 1
	// The writer ingests writerBatch rows every writerPeriod: a fixed offered
	// rate, never reported as throughput. It outpaces censusPolicy's trip
	// point, so the supervisor retrains back to back and every read contends
	// with a retrain; a steady share of contended reads keeps the tail
	// comparable from run to run.
	writerPeriod = 100 * time.Millisecond
	writerBatch  = 10
	// censusPool distinct reader queries, 4 times the engine's cache; the
	// single reader does not exhaust it within a run.
	censusPool = 1 << 14
)

// censusPolicy retrains on data drift as soon as MinAppended rows arrived,
// with a one-epoch full train.
var censusPolicy = lifecycle.Policy{
	MaxColumnDrift: 0.2,
	MinAppended:    50,
	TrainEpochs:    1,
}

// retrainLog collects the supervisor's retrain reports.
type retrainLog struct {
	mu    sync.Mutex
	stats []lifecycle.RetrainStats
}

func (l *retrainLog) add(st lifecycle.RetrainStats) {
	l.mu.Lock()
	l.stats = append(l.stats, st)
	l.mu.Unlock()
}

func (l *retrainLog) snapshot() []lifecycle.RetrainStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]lifecycle.RetrainStats(nil), l.stats...)
}

type censusState struct {
	table    *relation.Table
	model    *core.Model
	reg      *registry.Registry
	sup      *lifecycle.Supervisor
	retrains *retrainLog
}

func (s *censusState) close() {
	s.sup.Close()
	s.reg.Close()
}

func buildCensus(eps *[]core.EpochStats) (*censusState, error) {
	t := relation.SynCensus(censusRows, dataSeed)
	m, ep := trainModel(t, core.DefaultConfig(), censusEpochs)
	*eps = append(*eps, ep...)
	met := obs.NewRegistry()
	reg := registry.New(registry.Config{Obs: met})
	if err := reg.Add("census", t, m, registry.AddOpts{}); err != nil {
		reg.Close()
		return nil, err
	}
	log := &retrainLog{}
	sup := lifecycle.NewSupervisor(reg, censusPolicy, lifecycle.Options{OnRetrain: log.add, Obs: met})
	st := &censusState{table: t, model: m, reg: reg, sup: sup, retrains: log}
	if err := sup.Manage("census", lifecycle.ManageOpts{Config: core.DefaultConfig(), Train: trainConfig(censusEpochs)}); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// driftRows draws rows of t whose age and hours values are pushed into the
// top tenth of their dictionaries: existing values only, so encodings stay
// compatible, but a distribution shift the drift signal trips on.
func driftRows(t *relation.Table, rng *rand.Rand, n int) [][]string {
	drifted := map[int]bool{t.ColumnIndex("age"): true, t.ColumnIndex("hours"): true}
	codes := make([]int32, t.NumCols())
	rows := make([][]string, n)
	for i := range rows {
		t.RowCodes(rng.Intn(t.NumRows()), codes)
		row := make([]string, t.NumCols())
		for ci, c := range t.Cols {
			code := codes[ci]
			if drifted[ci] {
				ndv := c.NumDistinct()
				code = int32(ndv - 1 - rng.Intn(max(1, ndv/10)))
			}
			row[ci] = c.ValueString(code)
		}
		rows[i] = row
	}
	return rows
}

// writerStats is what the open-loop writer measured.
type writerStats struct {
	ops, failed  int64
	writeUS      []float64 // Ingest completion minus due time
	lagUS        []float64 // Ingest start minus due time
	ingestPerRow []float64
	feedbackUS   []float64
	batches      [][][]string // the batches ingested, in order
}

// runWriter ingests one batch every writerPeriod, and sends one feedback
// observation after each, until stop closes. Each write is timed from when
// it was due, so a stall also delays the writes queued behind it.
func runWriter(st *censusState, chk *checker, batches [][][]string, fb []workload.Query, fbCards []int64, started *atomic.Int64, stop <-chan struct{}) writerStats {
	var ws writerStats
	maxRows := func() float64 { return float64(censusRows + int(started.Load())*writerBatch) }
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := dueAt(start, writerPeriod, k)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return ws
			case <-timer.C:
			}
		}
		select {
		case <-stop:
			return ws
		default:
		}
		rows := batches[k%len(batches)]
		began := time.Now()
		ws.lagUS = append(ws.lagUS, float64(lateness(due, began))/float64(time.Microsecond))
		started.Add(1)
		ws.ops++
		res, err := st.sup.Ingest("census", rows)
		done := time.Now()
		if err != nil || res.Appended != len(rows) {
			ws.failed++
			chk.failf("Ingest: appended %d of %d rows: %v", res.Appended, len(rows), err)
		} else {
			ws.writeUS = append(ws.writeUS, float64(done.Sub(due))/float64(time.Microsecond))
			ws.ingestPerRow = append(ws.ingestPerRow, float64(done.Sub(began))/float64(time.Microsecond)/float64(len(rows)))
			ws.batches = append(ws.batches, rows)
		}
		i := k % len(fb)
		ws.ops++
		t0 := time.Now()
		fr, err := st.sup.Feedback("census", expr(st.table, fb[i], ""), fbCards[i])
		if err != nil {
			ws.failed++
			chk.failf("Feedback: %v", err)
			continue
		}
		ws.feedbackUS = append(ws.feedbackUS, since(t0))
		chk.card("feedback estimate", fr.Estimate, maxRows())
	}
}

// runCensusIngest measures the coalescing read path under concurrent
// ingest, feedback and background retrains.
func runCensusIngest(o options, chk *checker) (*outcome, error) {
	out := newOutcome()
	var eps []core.EpochStats
	st, setups, err := timedSetups(setupRepeats, func() (*censusState, error) {
		var ep []core.EpochStats
		s, err := buildCensus(&ep)
		eps = append(eps, ep...)
		return s, err
	}, (*censusState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out.set("setup_s", median(setups), len(setups))
	tps, n := tuplesPerSec(eps)
	out.set("core.train_tuples_per_s", tps, n)
	ctx := context.Background()

	// The probe runs before any row is ingested, so the generation serving it
	// is the model built in set-up; each probe query rides the coalescer.
	probe := distinctQueries(st.table, probeSize, -dataSeed, 8)
	exact := exec.Cardinalities(st.table, probe)
	direct := st.model.EstimateCardBatch(probe)
	got := make([]float64, len(probe))
	bounds := make([]float64, len(probe))
	for i, q := range probe {
		if got[i], err = st.reg.Estimate(ctx, "census", q); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		bounds[i] = float64(censusRows)
	}
	if err := setQError(out, gradeProbe(chk, got, direct, bounds, exact)); err != nil {
		return nil, err
	}

	pool := shuffled(distinctQueries(st.table, censusPool, dataSeed, 8), o.seed)
	rng := rand.New(rand.NewSource(o.seed))
	nBatches := int(o.seconds/writerPeriod.Seconds()) + 10
	batches := make([][][]string, nBatches)
	for i := range batches {
		batches[i] = driftRows(st.table, rng, writerBatch)
	}
	fb := distinctQueries(st.table, 256, dataSeed+1, 4)
	fbCards := exec.Cardinalities(st.table, fb)

	tracer := newTracer()
	l := newLedger()
	var started atomic.Int64
	var next int
	call := func(_ int, traced bool) (int, error) {
		q := pool[next%len(pool)]
		next++
		cctx := ctx
		var tr *obs.Trace
		if traced {
			cctx, tr = tracer.Start(ctx, "")
		}
		t0 := time.Now()
		card, err := st.reg.Estimate(cctx, "census", q)
		e2e := since(t0)
		if traced {
			tracer.Finish(tr)
			l.add(e2e, "census", spansOf(tracer, tr.ID()))
		}
		if err != nil {
			chk.failf("Estimate: %v", err)
			return 0, err
		}
		chk.card("census query", card, float64(censusRows+int(started.Load())*writerBatch))
		return 1, nil
	}
	closedLoop(1, warmup, func(c int) (int, error) { return call(c, false) })

	before := st.reg.Stats().PerModel["census"]
	retrainsBefore := len(st.retrains.snapshot())
	stop := make(chan struct{})
	written := make(chan writerStats, 1)
	steal := startSteal()
	go func() { written <- runWriter(st, chk, batches, fb, fbCards, &started, stop) }()
	plain, traced := measure(o, 1, call)
	close(stop)
	ws := <-written
	out.stealMS = steal.ms()
	after := st.reg.Stats().PerModel["census"]
	retrains := st.retrains.snapshot()[retrainsBefore:]

	out.attempted = plain.calls + traced.calls + ws.ops
	out.failed = plain.failed + traced.failed + ws.failed
	if err := setWriteMetrics(out, ws, retrains); err != nil {
		return nil, err
	}
	if !o.trace {
		return out, setReadMetrics(out, plain)
	}

	setOverhead(out, plain, traced)
	setEngineCounters(out, before.Stats, after.Stats)
	// Direct timings run on a quiet process: Close waits for a retrain in
	// progress and starts no other. The set-up generation no longer serves.
	st.sup.Close()
	fwd := newForwardTimer()
	fwd.use("census", st.model, pool)
	out.set("core.estimate_batch_us_per_query", fwd.cost(planKey{"census", 1}), forwardReps(1))
	out.set("made.plan_weight_bytes", float64(st.model.WarmPlan()), 1)
	appendUS, n := replayAppends(st.table, ws.batches)
	out.set("relation.append_us_per_row", appendUS, n)
	setEngineLedger(out, l, fwd.cost, nil)
	return out, nil
}

// setWriteMetrics reports the writer's and the supervisor's figures.
func setWriteMetrics(out *outcome, ws writerStats, retrains []lifecycle.RetrainStats) error {
	p50, err := guardedPercentile(ws.writeUS, 0.5)
	if err != nil {
		return fmt.Errorf("write_latency_p50_us: %w", err)
	}
	out.set("write_latency_p50_us", p50, len(ws.writeUS))
	out.set("loadgen.write_lag_ms", mean(ws.lagUS)/1000, len(ws.lagUS))
	out.set("lifecycle.ingest_us_per_row", mean(ws.ingestPerRow), len(ws.ingestPerRow))
	out.set("lifecycle.feedback_us", mean(ws.feedbackUS), len(ws.feedbackUS))
	var train, swap, total []float64
	for _, r := range retrains {
		if r.Err != nil {
			return fmt.Errorf("retrain v%d failed: %w", r.Version, r.Err)
		}
		train = append(train, r.TrainDuration.Seconds())
		swap = append(swap, float64(r.SwapLatency)/float64(time.Microsecond))
		total = append(total, (r.TrainDuration + r.SwapLatency).Seconds())
	}
	if len(retrains) == 0 {
		return fmt.Errorf("the supervisor never retrained during the timed phase")
	}
	out.set("lifecycle.retrains", float64(len(retrains)), len(retrains))
	out.set("lifecycle.train_s", median(train), len(train))
	out.set("registry.swap_us", median(swap), len(swap))
	out.set("retrain_s", median(total), len(total))
	return nil
}

// replayAppends times relation.AppendRows over the batches the writer
// ingested, applied in order to the set-up table, and returns the mean cost
// per row and the number of batches.
func replayAppends(t *relation.Table, batches [][][]string) (float64, int) {
	var per []float64
	for _, rows := range batches {
		t0 := time.Now()
		next, err := relation.AppendRows(t, rows)
		if err != nil {
			continue
		}
		per = append(per, since(t0)/float64(len(rows)))
		t = next
	}
	return mean(per), len(per)
}
