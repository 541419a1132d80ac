// Package serve is the concurrent batched serving engine for Duet. The
// paper's headline property — one deterministic forward pass per query, no
// progressive sampling — makes Duet uniquely batchable among learned
// estimators: concurrent single-query requests can be coalesced into one
// micro-batch and answered by a single batched network inference without
// changing any individual estimate.
//
// The engine sits between callers and a batch-native Backend (core.Model's
// EstimateCardBatch), which is safe for concurrent use: the engine holds no
// lock around it. Concurrent Estimate calls are queued to one dispatcher
// goroutine that collects up to MaxBatch requests, waiting at most
// FlushWindow for co-travellers after the first arrival, deduplicates them
// by canonical predicate-set key, and answers the whole micro-batch with one
// forward pass. EstimateBatch callers, who batched already, skip the queue
// and call the backend directly from their own goroutines, in parallel with
// each other and with the dispatcher. A canonical-key LRU cache in front
// short-circuits repeated queries entirely. Because the backend keeps its
// forward buffers in pooled per-call workspaces and the request path reuses
// pooled scratch, steady-state serving performs no per-request matrix
// allocations.
//
// Estimates are deterministic under coalescing: the batch plan's kernels
// compute output rows independently with fixed accumulation order, so a
// query's estimate is bitwise independent of which micro-batch it happened
// to ride in (batched results match the single-query EstimateCard path up
// to floating-point summation order, like the model's fused MPSN). The cache
// and deduplication key identifies the predicate *set* (order-insensitive),
// which matches the direct encoding and the paper's recommended MLP MPSN
// (a sum over predicates); the order-sensitive RNN/recursive MPSN variants
// are research ablations and not intended behind the cache.
package serve

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"duet/internal/obs"
	"duet/internal/workload"
)

// Backend answers a batch of queries with one forward pass. core.Model
// implements it. A Backend must be safe for concurrent use: the dispatcher
// and every EstimateBatch caller invoke it in parallel, and no engine lock
// serializes them. Results must depend only on each query, not on the batch
// it rides in or on concurrent calls.
type Backend interface {
	EstimateCardBatch(qs []workload.Query) []float64
}

// ErrClosed is returned by Estimate and EstimateBatch after Close.
var ErrClosed = errors.New("serve: estimator closed")

// Config tunes the serving engine. The zero value selects sensible defaults.
type Config struct {
	// MaxBatch caps the micro-batch size; the dispatcher flushes as soon as
	// this many requests are pending. Default 64.
	MaxBatch int
	// FlushWindow is how long the dispatcher waits for additional requests
	// after the first one before flushing a partial batch. It trades single-
	// request latency for batching opportunity. Default 100µs; negative
	// disables waiting (every flush takes whatever is already queued).
	FlushWindow time.Duration
	// CacheSize is the LRU result-cache capacity in entries. Default 4096;
	// negative disables caching.
	CacheSize int
	// QueueDepth is the pending-request channel capacity. Default 4×MaxBatch.
	// Admission.MaxQueue, when set, overrides it: the channel capacity is the
	// queue bound, so the shed decision is exact.
	QueueDepth int
	// Admission bounds the load the engine accepts (per-model QPS token
	// bucket and queue-depth shedding). The zero value admits everything.
	Admission AdmissionConfig
	// Obs, when set, exports the engine's counters through the shared
	// metrics registry and turns on the per-stage latency clocks. ObsModel
	// is the value of the `model` label on every exported series. Nil keeps
	// the counters private to Stats and the clocks off.
	Obs      *obs.Registry
	ObsModel string
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.FlushWindow == 0 {
		c.FlushWindow = 100 * time.Microsecond
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	c.Admission = c.Admission.withDefaults()
	if c.Admission.MaxQueue > 0 {
		c.QueueDepth = c.Admission.MaxQueue
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// Stats is a snapshot of the engine's counters. The JSON names are the
// /v1/stats wire contract of cmd/duetserve.
type Stats struct {
	Requests       uint64  `json:"requests"`             // queries received (Estimate + EstimateBatch items)
	CacheHits      uint64  `json:"cache_hits"`           // queries answered from the LRU cache
	Batches        uint64  `json:"batches"`              // backend forward passes issued
	BatchedQueries uint64  `json:"batched_queries"`      // queries answered by those passes (after dedup)
	MaxBatch       uint64  `json:"max_batch"`            // largest backend batch observed
	CacheEntries   int     `json:"cache_entries"`        // current cache occupancy
	Shed           uint64  `json:"shed"`                 // queries rejected by admission control
	RateLimit      float64 `json:"rate_limit,omitempty"` // configured QPS budget (0 = unlimited)
}

// request is one in-flight single-query estimate. enq and tr ride along so
// the dispatcher can attribute queue wait and execution time back to the
// caller's trace.
type request struct {
	key string
	q   workload.Query
	out chan float64
	enq time.Time  // enqueue instant; zero when neither metrics nor trace need it
	tr  *obs.Trace // caller's trace; nil for untraced requests
}

// Estimator coalesces concurrent cardinality estimates into batched forward
// passes. Create with New, release with Close. Safe for concurrent use.
type Estimator struct {
	cfg     Config
	backend Backend
	cache   *lruCache

	reqs    chan request
	done    chan struct{} // closed by Close: stop accepting work
	drained chan struct{} // closed when the dispatcher has exited
	closeMu sync.Once

	bucket *bucket // nil when no rate budget is configured

	met          engineMetrics
	reqPool      sync.Pool // recycles result channels across requests
	batchScratch sync.Pool // *batchScratch for EstimateBatch
	dispBatch    []request // dispatcher-only scratch
	dispQs       []workload.Query
	dispIdx      map[string]int
	sampleTick   uint64 // dispatcher-only: 1-in-8 stage-clock sampling
}

// New starts a serving engine over backend. The caller keeps ownership of
// backend and may keep estimating through it directly; it must not retrain
// or reconfigure it while the engine serves.
func New(backend Backend, cfg Config) *Estimator {
	cfg = cfg.withDefaults()
	e := &Estimator{
		cfg:     cfg,
		backend: backend,
		cache:   newLRUCache(cfg.CacheSize),
		reqs:    make(chan request, cfg.QueueDepth),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
		dispIdx: make(map[string]int, cfg.MaxBatch),
		met:     newEngineMetrics(cfg.Obs, cfg.ObsModel),
	}
	if cfg.Admission.QPS > 0 {
		e.bucket = newBucket(cfg.Admission.QPS, cfg.Admission.Burst)
	}
	registerEngineGauges(cfg.Obs, cfg.ObsModel, e)
	e.reqPool.New = func() any { return make(chan float64, 1) }
	e.batchScratch.New = func() any { return &batchScratch{first: make(map[string]int)} }
	go e.run()
	return e
}

// Estimate returns the estimated cardinality of q, answering from the cache
// when possible and otherwise riding a coalesced micro-batch. It blocks
// until the estimate is ready, ctx is done, or the estimator is closed.
func (e *Estimator) Estimate(ctx context.Context, q workload.Query) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	select {
	case <-e.done:
		return 0, ErrClosed
	default:
	}
	e.met.requests.Inc()
	tr := obs.FromContext(ctx)
	// The stage clocks run when metrics are wired or this request is traced;
	// otherwise the hot path takes no extra time.Now calls.
	timed := e.met.timed || tr != nil
	key := q.CanonicalKey()
	var t0 time.Time
	// A disabled stage (no cache, no rate bucket) is a constant-time no-op;
	// clocking it would only add time.Now pairs to the hot path for a
	// zero-width histogram, so each stage clock also requires its stage.
	timeCache := timed && e.cache != nil
	if timeCache {
		t0 = time.Now()
	}
	card, hit := e.cache.get(key)
	if timeCache {
		d := time.Since(t0)
		if e.met.timed {
			e.met.cacheLookup.ObserveEx(d.Seconds(), tr.ID())
		}
		tr.AddSpan("cache_lookup", t0, d, "hit", strconv.FormatBool(hit))
	}
	if hit {
		e.met.hits.Inc()
		return card, nil
	}
	// Admission guards the backend, so cache hits above are always free; only
	// a miss spends rate budget or queue room.
	timeAdmit := timed && e.bucket != nil
	if timeAdmit {
		t0 = time.Now()
	}
	err := e.admit(1)
	if timeAdmit {
		d := time.Since(t0)
		if e.met.timed {
			e.met.admissionWait.ObserveEx(d.Seconds(), tr.ID())
		}
		tr.AddSpan("admission_wait", t0, d)
	}
	if err != nil {
		return 0, err
	}
	out := e.reqPool.Get().(chan float64)
	r := request{key: key, q: q, out: out, tr: tr}
	if timed {
		r.enq = time.Now()
	}
	if e.cfg.Admission.MaxQueue > 0 {
		// Queue-bounded: the channel capacity is the bound, so a full channel
		// sheds instead of blocking the caller behind the backlog.
		select {
		case e.reqs <- r:
		case <-e.done:
			e.reqPool.Put(out)
			return 0, ErrClosed
		default:
			e.reqPool.Put(out)
			return 0, e.shedQueue()
		}
	} else {
		select {
		case e.reqs <- r:
		case <-ctx.Done():
			e.reqPool.Put(out)
			return 0, ctx.Err()
		case <-e.done:
			e.reqPool.Put(out)
			return 0, ErrClosed
		}
	}
	select {
	case card := <-out:
		e.reqPool.Put(out)
		return card, nil
	case <-ctx.Done():
		// The dispatcher will still deliver into the buffered channel; the
		// channel is abandoned to the GC rather than returned to the pool.
		return 0, ctx.Err()
	case <-e.drained:
		// Closed after our enqueue raced the dispatcher's final drain; the
		// request was never answered.
		select {
		case card := <-out:
			e.reqPool.Put(out)
			return card, nil
		default:
			return 0, ErrClosed
		}
	}
}

// EstimateBatch answers an explicit batch, serving cache hits directly and
// pushing the distinct misses through the backend in MaxBatch-sized chunks.
// It bypasses the coalescing queue — the caller has already batched — and
// calls the backend from the caller's goroutine, sharing only the result
// cache with the dispatcher.
func (e *Estimator) EstimateBatch(ctx context.Context, qs []workload.Query) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-e.done:
		return nil, ErrClosed
	default:
	}
	e.met.requests.Add(uint64(len(qs)))
	tr := obs.FromContext(ctx)
	timed := e.met.timed || tr != nil
	out := make([]float64, len(qs))
	sc := e.batchScratch.Get().(*batchScratch)
	defer sc.release(&e.batchScratch)
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	hits := 0
	misses, missKeys, missOf := sc.misses[:0], sc.missKeys[:0], sc.missOf[:0]
	for i, q := range qs {
		key := q.CanonicalKey()
		if card, ok := e.cache.get(key); ok {
			hits++
			out[i] = card
			missOf = append(missOf, -1)
			continue
		}
		j, dup := sc.first[key]
		if !dup {
			j = len(misses)
			sc.first[key] = j
			misses = append(misses, q)
			missKeys = append(missKeys, key)
		}
		missOf = append(missOf, j)
	}
	sc.misses, sc.missKeys, sc.missOf = misses, missKeys, missOf
	e.met.hits.Add(uint64(hits))
	if dups := len(qs) - hits - len(misses); dups > 0 {
		e.met.dedup.Add(uint64(dups))
	}
	if timed {
		d := time.Since(t0)
		if e.met.timed {
			e.met.cacheLookup.ObserveEx(d.Seconds(), tr.ID())
		}
		tr.AddSpan("cache_lookup", t0, d,
			"hits", strconv.Itoa(hits), "misses", strconv.Itoa(len(misses)))
	}
	// Rate-admit the distinct misses as one unit: a partially answered batch
	// is useless to the caller, so admission is all-or-nothing.
	if len(misses) > 0 {
		if timed {
			t0 = time.Now()
		}
		err := e.admit(len(misses))
		if timed {
			d := time.Since(t0)
			if e.met.timed {
				e.met.admissionWait.ObserveEx(d.Seconds(), tr.ID())
			}
			tr.AddSpan("admission_wait", t0, d)
		}
		if err != nil {
			return nil, err
		}
	}
	for lo := 0; lo < len(misses); lo += e.cfg.MaxBatch {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-e.done:
			return nil, ErrClosed
		default:
		}
		hi := lo + e.cfg.MaxBatch
		if hi > len(misses) {
			hi = len(misses)
		}
		chunk := misses[lo:hi]
		if timed {
			t0 = time.Now()
		}
		cards := e.forward(chunk, e.met.timed)
		if timed {
			d := time.Since(t0)
			if e.met.timed {
				e.met.planExec.ObserveEx(d.Seconds(), tr.ID())
			}
			tr.AddSpan("plan_exec", t0, d, "batch_size", strconv.Itoa(len(chunk)))
		}
		for j := range chunk {
			e.cache.put(missKeys[lo+j], cards[j])
		}
		sc.cards = append(sc.cards, cards...)
	}
	for i, j := range missOf {
		if j >= 0 {
			out[i] = sc.cards[j]
		}
	}
	return out, nil
}

// batchScratch is EstimateBatch's per-call bookkeeping, pooled so the cache
// lookup stage allocates nothing beyond the keys themselves.
type batchScratch struct {
	first    map[string]int   // key -> index of its distinct miss
	misses   []workload.Query // distinct misses, in first-seen order
	missKeys []string         // their keys
	missOf   []int            // per query: index of its miss, -1 for a cache hit
	cards    []float64        // per distinct miss: its estimate
}

// release clears sc (dropping references to the caller's queries and keys)
// and returns it to pool.
func (sc *batchScratch) release(pool *sync.Pool) {
	clear(sc.first)
	clear(sc.misses)
	clear(sc.missKeys)
	sc.cards = sc.cards[:0]
	pool.Put(sc)
}

// Stats returns a snapshot of the engine counters. The fields read the same
// obs instruments the Prometheus exposition serves, so /v1/stats and
// /v1/metrics always agree on any counter they both report.
func (e *Estimator) Stats() Stats {
	return Stats{
		Requests:       e.met.requests.Value(),
		CacheHits:      e.met.hits.Value(),
		Batches:        e.met.batches.Value(),
		BatchedQueries: e.met.batched.Value(),
		MaxBatch:       uint64(e.met.maxBatch.Value()),
		CacheEntries:   e.cache.len(),
		Shed:           e.met.shedRate.Value() + e.met.shedQueue.Value(),
		RateLimit:      e.cfg.Admission.QPS,
	}
}

// Close stops the dispatcher after it answers everything already queued.
// Subsequent calls to Estimate and EstimateBatch return ErrClosed. Close is
// idempotent and returns once the dispatcher has exited.
func (e *Estimator) Close() error {
	e.closeMu.Do(func() { close(e.done) })
	<-e.drained
	return nil
}

// run is the dispatcher: collect a micro-batch, flush, repeat.
func (e *Estimator) run() {
	defer close(e.drained)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		var first request
		select {
		case first = <-e.reqs:
		case <-e.done:
			// Final drain: answer whatever managed to enqueue before done.
			for {
				select {
				case r := <-e.reqs:
					e.flush([]request{r})
				default:
					return
				}
			}
		}
		batch := append(e.dispBatch[:0], first)
		if e.cfg.FlushWindow > 0 && e.cfg.MaxBatch > 1 {
			timer.Reset(e.cfg.FlushWindow)
			expired := false
		collect:
			for len(batch) < e.cfg.MaxBatch {
				select {
				case r := <-e.reqs:
					batch = append(batch, r)
				case <-timer.C:
					expired = true
					break collect
				case <-e.done:
					break collect
				}
			}
			if !expired && !timer.Stop() {
				<-timer.C
			}
		} else {
			// Opportunistic, non-waiting coalescing.
		opportunistic:
			for len(batch) < e.cfg.MaxBatch {
				select {
				case r := <-e.reqs:
					batch = append(batch, r)
				default:
					break opportunistic
				}
			}
		}
		e.flush(batch)
		e.dispBatch = batch[:0]
	}
}

// flush answers one micro-batch: dedupe by canonical key, run one backend
// forward over the distinct queries, populate the cache, deliver results.
// Queue wait and execution time are attributed back to each rider's trace.
func (e *Estimator) flush(batch []request) {
	if len(batch) == 0 {
		return
	}
	qs := e.dispQs[:0]
	idx := e.dispIdx
	clear(idx)
	traced := false
	for _, r := range batch {
		if r.tr != nil {
			traced = true
		}
		if _, ok := idx[r.key]; !ok {
			idx[r.key] = len(qs)
			qs = append(qs, r.q)
		}
	}
	if dups := len(batch) - len(qs); dups > 0 {
		e.met.dedup.Add(uint64(dups))
	}
	// Untraced batches sample the stage clocks 1-in-8: the histograms remain
	// uniform samples of the same distribution while the dispatcher's
	// steady-state cost stays flat (the counters above are always exact).
	// Any traced rider forces the clocks on — its spans need real times.
	sampled := e.met.timed && e.sampleTick&7 == 0
	e.sampleTick++
	timed := sampled || traced
	var execStart time.Time
	if timed {
		execStart = time.Now()
	}
	cards := e.forward(qs, sampled)
	var execDur time.Duration
	if timed {
		execDur = time.Since(execStart)
	}
	if sampled || (traced && e.met.timed) {
		// A traced batch observes the histograms even off-sample: the clocks
		// already ran for the rider's spans, and the rider's trace id becomes
		// the bucket exemplar so a scrape links straight into the trace ring.
		exID := ""
		for _, r := range batch {
			if r.tr != nil {
				exID = r.tr.ID()
				break
			}
		}
		e.met.planExec.ObserveEx(execDur.Seconds(), exID)
		for _, r := range batch {
			e.met.batchWait.ObserveEx(execStart.Sub(r.enq).Seconds(), r.tr.ID())
		}
	}
	size := strconv.Itoa(len(qs))
	for _, r := range batch {
		if r.tr != nil {
			r.tr.AddSpan("batch_wait", r.enq, execStart.Sub(r.enq))
			r.tr.AddSpan("plan_exec", execStart, execDur, "batch_size", size)
		}
		card := cards[idx[r.key]]
		e.cache.put(r.key, card)
		r.out <- card
	}
	e.dispQs = qs[:0]
}

// forward runs one backend pass and updates the batch counters. sampled
// mirrors the flush-path clock sampling for the size histogram.
func (e *Estimator) forward(qs []workload.Query, sampled bool) []float64 {
	cards := e.backend.EstimateCardBatch(qs)
	e.met.batches.Inc()
	e.met.batched.Add(uint64(len(qs)))
	e.met.maxBatch.SetMax(float64(len(qs)))
	if sampled {
		e.met.batchSize.Observe(float64(len(qs)))
	}
	return cards
}
