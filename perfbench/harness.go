package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"duet/internal/core"
	"duet/internal/obs"
	"duet/internal/relation"
	"duet/internal/serve"
	"duet/internal/workload"
)

const (
	// dataSeed fixes every table and model, so set-up work and probe
	// q-errors are identical in every run; --seed varies only the traffic.
	dataSeed = 7
	// setupRepeats is how many times a run builds its program state; setup_s
	// is the median over the builds the host stole least from.
	setupRepeats = 3
	// probeSize is the number of fixed probe queries checked bitwise and
	// graded by q-error.
	probeSize = 400
	// warmup is untimed traffic before the timed phase.
	warmup = time.Second
	// tickEvery is the width of the windows throughput and CPU per estimate
	// are medians over.
	tickEvery = 500 * time.Millisecond
	// tracedSegments alternate untraced and traced traffic in a traced run,
	// so host drift affects both sides of trace.overhead_pct alike.
	tracedSegments = 6
	// latencyWindows equal groups split a closed loop's calls by completion
	// time; a latency percentile is the median of the groups' percentiles,
	// so one burst of interference moves at most one of them.
	latencyWindows = 5
)

// checker collects output-check failures. Safe for concurrent use.
type checker struct {
	n    atomic.Int64
	mu   sync.Mutex
	msgs []string
}

// failf records one failed check; the first few messages are kept.
func (c *checker) failf(format string, args ...any) {
	if c.n.Add(1) > 5 {
		return
	}
	c.mu.Lock()
	c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// card checks that an estimate is finite and lies in [0, hi].
func (c *checker) card(what string, v, hi float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > hi {
		c.failf("%s: estimate %v outside [0, %v]", what, v, hi)
	}
}

func (c *checker) ok() bool     { return c.n.Load() == 0 }
func (c *checker) count() int64 { return c.n.Load() }

func (c *checker) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

// timedSetups builds the program state n times, timing each build, and keeps
// the last; earlier states are released with discard. It returns the times
// of the calm builds, those during which the host stole no more CPU time than
// it did in the median build.
func timedSetups[T any](n int, build func() (T, error), discard func(T)) (T, []float64, error) {
	var st T
	var secs []float64
	var steals []uint64
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(st)
		}
		runtime.GC()
		steal0, _ := stealTicks()
		t0 := time.Now()
		var err error
		if st, err = build(); err != nil {
			return st, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		steal1, _ := stealTicks()
		steals = append(steals, steal1-steal0)
	}
	var kept []float64
	for i, ok := range calm(steals) {
		if ok {
			kept = append(kept, secs[i])
		}
	}
	return st, kept, nil
}

// trainModel trains a data-only Duet model on t and returns the per-epoch
// statistics.
func trainModel(t *relation.Table, cfg core.Config, epochs int) (*core.Model, []core.EpochStats) {
	m := core.NewModel(t, cfg)
	return m, core.Train(m, trainConfig(epochs))
}

func trainConfig(epochs int) core.TrainConfig {
	tc := core.DefaultTrainConfig()
	tc.Epochs = epochs
	tc.Lambda = 0
	tc.Seed = dataSeed
	return tc
}

// tuplesPerSec is the median training throughput over epochs.
func tuplesPerSec(eps []core.EpochStats) (float64, int) {
	var v []float64
	for _, e := range eps {
		v = append(v, e.TuplesPerSec)
	}
	return median(v), len(v)
}

// distinctQueries generates n queries over t with distinct canonical keys.
func distinctQueries(t *relation.Table, n int, seed int64, maxPreds int) []workload.Query {
	seen := make(map[string]bool, n)
	out := make([]workload.Query, 0, n)
	for round := int64(0); len(out) < n; round++ {
		cfg := workload.GenConfig{Seed: seed*1000003 + round, NumQueries: n, MinPreds: 1, MaxPreds: maxPreds, BoundedCol: -1}
		for _, q := range workload.Generate(t, cfg) {
			if k := q.CanonicalKey(); !seen[k] && len(out) < n {
				seen[k] = true
				out = append(out, q)
			}
		}
	}
	return out
}

// shuffled returns xs, shuffled in place in an order drawn from seed: a pool
// built from dataSeed stays the same in every run and --seed changes only
// the order it is sent in.
func shuffled[T any](xs []T, seed int64) []T {
	rand.New(rand.NewSource(seed)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// expr renders q as the textual expression the router parses, qualifying
// each column with table when it is not empty.
func expr(t *relation.Table, q workload.Query, table string) string {
	var b strings.Builder
	for i, p := range q.Preds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		if table != "" {
			b.WriteString(table)
			b.WriteByte('.')
		}
		c := t.Cols[p.Col]
		b.WriteString(c.Name)
		b.WriteString(p.Op.String())
		b.WriteString(c.ValueString(p.Code))
	}
	return b.String()
}

// gradeProbe checks a probe set answered through a workload's path against
// the same model answered directly, bitwise, and against each estimate's
// bound, and returns the q-errors against the exact counts.
func gradeProbe(chk *checker, got, direct, bound []float64, exact []int64) (qerr []float64) {
	for i := range got {
		chk.card("probe "+strconv.Itoa(i), got[i], bound[i])
		if math.Float64bits(got[i]) != math.Float64bits(direct[i]) {
			chk.failf("probe %d: served estimate %v differs from the direct f32 estimate %v", i, got[i], direct[i])
		}
		qerr = append(qerr, workload.QError(got[i], float64(exact[i])))
	}
	return qerr
}

// setQError reports the probe's q-error quantiles.
func setQError(out *outcome, qerr []float64) error {
	p50, err := guardedPercentile(qerr, 0.5)
	if err != nil {
		return fmt.Errorf("qerror_p50: %w", err)
	}
	p95, err := guardedPercentile(qerr, 0.95)
	if err != nil {
		return fmt.Errorf("qerror_p95: %w", err)
	}
	out.set("qerror_p50", p50, len(qerr))
	out.set("qerror_p95", p95, len(qerr))
	return nil
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	latUS     [][]float64 // per-call latency as the caller saw it in calm windows, in completion-order groups
	calls     int64
	failed    int64
	estimates int64
	cpu       time.Duration // process CPU time over the phase
	windows   []window
}

func (a *loopStats) merge(b loopStats) {
	a.latUS = append(a.latUS, b.latUS...)
	a.calls += b.calls
	a.failed += b.failed
	a.estimates += b.estimates
	a.cpu += b.cpu
	a.windows = append(a.windows, b.windows...)
}

// closedLoop runs callers goroutines, each issuing calls back to back for d.
// A call returns how many estimates it answered; a failed call counts as a
// failure and adds no latency sample. It returns once every caller and the
// progress sampler have stopped.
func closedLoop(callers int, d time.Duration, call func(caller int) (int, error)) loopStats {
	var estimates atomic.Int64
	lat := make([][]float64, callers)
	doneAt := make([][]time.Duration, callers)
	calls := make([]int64, callers)
	failed := make([]int64, callers)
	start := time.Now()
	end := start.Add(d)
	cpu0 := processCPU()
	steal0, _ := stealTicks()
	ticks := []tick{{at: start, steal: steal0}}
	stop := make(chan struct{})
	sampled := make(chan []tick)
	go func() {
		tk := time.NewTicker(tickEvery)
		defer tk.Stop()
		local := ticks
		for {
			select {
			case <-stop:
				sampled <- local
				return
			case now := <-tk.C:
				st, _ := stealTicks()
				local = append(local, tick{at: now, estimates: estimates.Load(), steal: st})
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				n, err := call(c)
				calls[c]++
				if err != nil {
					failed[c]++
					continue
				}
				lat[c] = append(lat[c], since(t0))
				doneAt[c] = append(doneAt[c], time.Since(start))
				estimates.Add(int64(n))
			}
		}(c)
	}
	wg.Wait()
	stealN, _ := stealTicks()
	final := tick{at: time.Now(), estimates: estimates.Load(), steal: stealN}
	cpu := processCPU() - cpu0
	close(stop)
	ticks = append(<-sampled, final)
	ws := windows(ticks)
	ok := calmWindows(ws)
	// Keep the calls that completed in a calm window, in completion order.
	type sample struct {
		at    time.Duration
		latUS float64
	}
	var kept []sample
	for c := 0; c < callers; c++ {
		for i, at := range doneAt[c] {
			t := start.Add(at)
			w := sort.Search(len(ws), func(j int) bool { return ws[j].to.After(t) })
			if w < len(ws) && ok[w] {
				kept = append(kept, sample{at, lat[c][i]})
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].at < kept[j].at })
	latUS := make([]float64, len(kept))
	for i, k := range kept {
		latUS[i] = k.latUS
	}
	ls := loopStats{estimates: final.estimates, cpu: cpu, windows: ws, latUS: latencyGroups(latUS)}
	for c := 0; c < callers; c++ {
		ls.calls += calls[c]
		ls.failed += failed[c]
	}
	return ls
}

// measure runs the timed phase. Untraced, it is one closed loop of the full
// length. Traced, it alternates untraced and traced segments of equal
// length and returns both sides.
func measure(o options, callers int, call func(caller int, traced bool) (int, error)) (plain, traced loopStats) {
	// Set-up, input generation and warm-up leave garbage behind; collect it
	// now so the timed phase does not pay for it.
	runtime.GC()
	total := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		return closedLoop(callers, total, func(c int) (int, error) { return call(c, false) }), loopStats{}
	}
	seg := total / tracedSegments
	for i := 0; i < tracedSegments; i++ {
		on := i%2 == 1
		ls := closedLoop(callers, seg, func(c int) (int, error) { return call(c, on) })
		if on {
			traced.merge(ls)
		} else {
			plain.merge(ls)
		}
	}
	return plain, traced
}

// setReadMetrics reports the end-to-end read figures of an untraced closed
// loop.
func setReadMetrics(out *outcome, ls loopStats) error {
	n := 0
	for _, w := range ls.latUS {
		n += len(w)
	}
	if n == 0 {
		return fmt.Errorf("no read call succeeded")
	}
	out.set("throughput_qps", medianQPS(ls.windows), len(ls.windows))
	out.set("cpu_us_per_estimate", cpuPerEstimate(ls.cpu, ls.estimates), int(ls.estimates))
	p50, err := windowedPercentile(ls.latUS, 0.5)
	if err != nil {
		return fmt.Errorf("latency_p50_us: %w", err)
	}
	p99, err := windowedPercentile(ls.latUS, 0.99)
	if err != nil {
		return fmt.Errorf("latency_p99_us: %w", err)
	}
	out.set("latency_p50_us", p50, n)
	out.set("latency_p99_us", p99, n)
	return nil
}

// setEngineCounters reports the engine's cache hit ratio and mean backend
// batch size over the counters' growth between two snapshots.
func setEngineCounters(out *outcome, before, after serve.Stats) {
	reqs := after.Requests - before.Requests
	batches := after.Batches - before.Batches
	if reqs > 0 {
		out.set("serve.cache_hit_ratio", float64(after.CacheHits-before.CacheHits)/float64(reqs), int(reqs))
	}
	if batches > 0 {
		out.set("serve.batch_size_mean", float64(after.BatchedQueries-before.BatchedQueries)/float64(batches), int(batches))
	}
}

// setOverhead reports how much slower traced segments ran than untraced
// ones, in percent of the untraced throughput.
func setOverhead(out *outcome, plain, traced loopStats) {
	pq, tq := medianQPS(plain.windows), medianQPS(traced.windows)
	out.set("trace.overhead_pct", 100*(pq-tq)/pq, len(plain.windows)+len(traced.windows))
}

// newTracer returns a tracer whose ring holds the spans of the calls in
// flight; each traced call reads its own trace back by id.
func newTracer() *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{RingSize: 64})
}

// planKey names one kind of backend forward: the model it ran and how many
// queries it carried.
type planKey struct {
	model string
	size  int
}

// ledger accumulates, over traced calls, the end-to-end time and the stage
// spans the engine recorded. Not safe for concurrent use; keep one per
// caller and merge.
type ledger struct {
	calls  int
	e2eUS  float64
	spanUS map[string]float64
	plans  map[planKey]int // plan_exec spans by model and batch size
}

func newLedger() *ledger { return &ledger{spanUS: map[string]float64{}, plans: map[planKey]int{}} }

// add records one traced call whose plan_exec spans ran model.
func (l *ledger) add(e2eUS float64, model string, spans []obs.SpanSnapshot) {
	l.calls++
	l.e2eUS += e2eUS
	for _, sp := range spans {
		l.spanUS[sp.Name] += float64(sp.DurationUS)
		if sp.Name == "plan_exec" {
			n, _ := strconv.Atoi(sp.Attrs["batch_size"])
			l.plans[planKey{model, n}]++
		}
	}
}

func (l *ledger) merge(o *ledger) {
	l.calls += o.calls
	l.e2eUS += o.e2eUS
	for k, v := range o.spanUS {
		l.spanUS[k] += v
	}
	for k, v := range o.plans {
		l.plans[k] += v
	}
}

// perCall returns a span's mean time per traced call; a stage a call never
// entered counts as 0 for it.
func (l *ledger) perCall(name string) float64 {
	if l.calls == 0 {
		return 0
	}
	return l.spanUS[name] / float64(l.calls)
}

// forwardPerCall returns the mean model forward time per traced call, each
// plan_exec span charged with the directly timed cost of a forward of its
// model and batch size.
func (l *ledger) forwardPerCall(cost func(planKey) float64) float64 {
	if l.calls == 0 {
		return 0
	}
	us := 0.0
	for k, n := range l.plans {
		us += float64(n) * cost(k)
	}
	return us / float64(l.calls)
}

// spansOf returns the spans the tracer recorded under id.
func spansOf(tr *obs.Tracer, id string) []obs.SpanSnapshot {
	snap, ok := tr.Get(id)
	if !ok {
		return nil
	}
	return snap.Spans
}

// setEngineLedger reports the serving-engine stages of a traced ledger and
// closes it: cost is the directly timed cost of one forward, so the rest of
// plan_exec is time spent waiting for the backend. extra holds the self
// times of layers outside the engine.
func setEngineLedger(out *outcome, l *ledger, cost func(planKey) float64, extra map[string]float64) {
	n := l.calls
	cache, admit, wait, plan := l.perCall("cache_lookup"), l.perCall("admission_wait"), l.perCall("batch_wait"), l.perCall("plan_exec")
	forward := l.forwardPerCall(cost)
	out.set("serve.cache_lookup_us", cache, n)
	out.set("serve.admission_wait_us", admit, n)
	out.set("serve.batch_wait_us", wait, n)
	out.set("serve.plan_exec_us", plan, n)
	out.set("serve.backend_wait_us", selfTime(plan, forward), n)
	self := map[string]float64{
		"cache_lookup": cache, "admission_wait": admit, "batch_wait": wait,
		"backend_wait": selfTime(plan, forward), "forward": forward,
	}
	for k, v := range extra {
		self[k] = v
	}
	e2e := 0.0
	if n > 0 {
		e2e = l.e2eUS / float64(n)
	}
	out.set("ledger.unattributed_us", unattributed(e2e, self), n)
}

// forwardTimer times model forwards directly, once for each model and batch
// size it is asked about, over chunks of that model's queries. The models
// must not be serving concurrently.
type forwardTimer struct {
	models  map[string]*core.Model
	queries map[string][]workload.Query
	timed   map[planKey]float64
}

func newForwardTimer() *forwardTimer {
	return &forwardTimer{models: map[string]*core.Model{}, queries: map[string][]workload.Query{}, timed: map[planKey]float64{}}
}

// use registers a model under the name its plan_exec spans are charged to.
func (f *forwardTimer) use(name string, m *core.Model, qs []workload.Query) {
	f.models[name], f.queries[name] = m, qs
}

// cost returns the median time in microseconds of one forward of k.size of
// k.model's queries.
func (f *forwardTimer) cost(k planKey) float64 {
	if us, ok := f.timed[k]; ok {
		return us
	}
	perQuery, _ := timeForward(f.models[k.model], f.queries[k.model], k.size, forwardReps(k.size))
	f.timed[k] = perQuery * float64(k.size)
	return f.timed[k]
}

// forwardReps is how many forwards of size queries are timed: enough that
// small batches, which are fast and noisy, get many samples.
func forwardReps(size int) int {
	return max(200, 2000/max(size, 1))
}

// timeForward times the model's batched forward directly over chunks of
// batch queries taken round-robin from qs and returns the median cost per
// query. The model must not be serving concurrently.
func timeForward(m *core.Model, qs []workload.Query, batch, reps int) (float64, int) {
	var per []float64
	for i := 0; i < reps; i++ {
		lo := (i * batch) % (len(qs) - batch + 1)
		chunk := qs[lo : lo+batch]
		t0 := time.Now()
		m.EstimateCardBatch(chunk)
		per = append(per, since(t0)/float64(batch))
	}
	return median(per), reps
}
