package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"duet/internal/api"
	"duet/internal/core"
	"duet/internal/exec"
	"duet/internal/obs"
	"duet/internal/registry"
	"duet/internal/relation"
	"duet/internal/serve"
	"duet/internal/workload"
)

const (
	kddRows   = 2000
	kddEpochs = 1
	viewEpoch = 1
	kddConns  = 2
	// kddPool expressions, 4 times the engine's 4096-entry cache, drawn
	// Zipf-style (P(k) ~ (kddZipfV+k)^-kddZipfS, a flattened head) so hot
	// expressions hit the cache and the tail misses.
	kddPool  = 1 << 14
	kddZipfS = 1.1
	kddZipfV = 1000
	// Every kddJoinEvery-th expression of the pool joins the 3-table chain.
	kddJoinEvery = 10
	// kddRouteSamples expressions of each kind are resolved directly to time
	// the router.
	kddRouteSamples = 2000
)

// chain is the join every join expression names: the full edge set of the
// join-graph view, so each one routes to the view with a fanout anchor.
const chain = "orders.cust_id = customers.id AND customers.region_id = regions.id"

var viewSpec = registry.JoinGraphSpec{
	Tables: []string{"orders", "customers", "regions"},
	Edges: []registry.JoinEdgeSpec{
		{Left: "orders", LeftCol: "cust_id", Right: "customers", RightCol: "id"},
		{Left: "customers", LeftCol: "region_id", Right: "regions", RightCol: "id"},
	},
}

// joinTables builds the chain orders -> customers -> regions.
func joinTables() []*relation.Table {
	regions := relation.Generate(relation.SynConfig{
		Name: "regions", Rows: 60, Seed: dataSeed,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 60, Parent: -1},
			{Name: "pop_bin", NDV: 10, Skew: 1.2, Parent: 0, Noise: 0.2},
		},
	})
	customers := relation.Generate(relation.SynConfig{
		Name: "customers", Rows: 1500, Seed: dataSeed + 1,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 1600, Parent: -1},
			{Name: "region_id", NDV: 64, Skew: 1.3, Parent: -1},
			{Name: "tier", NDV: 4, Skew: 1.8, Parent: 1, Noise: 0.2},
		},
	})
	orders := relation.Generate(relation.SynConfig{
		Name: "orders", Rows: 3000, Seed: dataSeed + 2,
		Cols: []relation.ColSpec{
			{Name: "cust_id", NDV: 1700, Skew: 1.3, Parent: -1},
			{Name: "amount_bin", NDV: 40, Skew: 1.4, Parent: 0, Noise: 0.3},
		},
	})
	return []*relation.Table{orders, customers, regions}
}

type kddState struct {
	kdd, view         *relation.Table
	tables            []*relation.Table // the view's base tables
	kddModel, viewMod *core.Model
	reg               *registry.Registry
	met               *obs.Registry
}

func buildKDD(eps *[]core.EpochStats) (*kddState, error) {
	kdd := relation.SynKDD(kddRows, dataSeed)
	km, ep := trainModel(kdd, core.DefaultConfig(), kddEpochs)
	*eps = append(*eps, ep...)
	tables := joinTables()
	g := &relation.JoinGraph{Tables: tables}
	for _, e := range viewSpec.Edges {
		g.Edges = append(g.Edges, e.Edge())
	}
	view, err := relation.MultiJoin("ocr", g)
	if err != nil {
		return nil, err
	}
	vm, _ := trainModel(view, core.DefaultConfig(), viewEpoch)
	met := obs.NewRegistry()
	reg := registry.New(registry.Config{Obs: met})
	add := func(name string, t *relation.Table, m *core.Model, opts registry.AddOpts) error {
		if err := reg.Add(name, t, m, opts); err != nil {
			reg.Close()
			return err
		}
		return nil
	}
	if err := add("kdd", kdd, km, registry.AddOpts{}); err != nil {
		return nil, err
	}
	// Base tables anchor the view's joins; their models never serve here.
	for _, t := range tables {
		if err := add(t.Name, t, core.NewModel(t, core.DefaultConfig()), registry.AddOpts{}); err != nil {
			return nil, err
		}
	}
	spec := viewSpec
	if err := add("ocr", view, vm, registry.AddOpts{Graph: &spec}); err != nil {
		return nil, err
	}
	return &kddState{kdd: kdd, view: view, tables: tables, kddModel: km, viewMod: vm, reg: reg, met: met}, nil
}

// request is one pre-rendered /v1/estimate call and what its answer must
// satisfy.
type request struct {
	model, expr string
	body        []byte
	res         registry.Resolution
	bound       float64 // the table's rows, or the join's exact anchor
}

// joinExpr returns a join over the chain with 1 to 3 value predicates.
func joinExpr(rng *rand.Rand, tables []*relation.Table) string {
	cols := []struct{ table, col string }{{"orders", "amount_bin"}, {"customers", "tier"}, {"regions", "pop_bin"}}
	ops := []workload.Op{workload.OpEq, workload.OpGt, workload.OpLt, workload.OpGe, workload.OpLe}
	e := chain
	picked := 0
	for picked == 0 {
		for i, c := range cols {
			if rng.Intn(2) == 0 {
				continue
			}
			col := tables[i].Cols[tables[i].ColumnIndex(c.col)]
			code := int32(rng.Intn(col.NumDistinct()))
			e += fmt.Sprintf(" AND %s.%s%s%s", c.table, c.col, ops[rng.Intn(len(ops))], col.ValueString(code))
			picked++
		}
	}
	return e
}

// kddRequests renders n distinct requests: every kddJoinEvery-th one a join
// over the view, the rest single-table SynKDD expressions.
func kddRequests(st *kddState, n int, seed int64) ([]request, error) {
	single := distinctQueries(st.kdd, n, seed, 8)
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		r := request{model: "kdd", expr: expr(st.kdd, single[i], "")}
		if i%kddJoinEvery == kddJoinEvery-1 {
			r.model = ""
			r.expr = joinExpr(rng, st.tables)
			for seen[r.expr] {
				r.expr = joinExpr(rng, st.tables)
			}
			seen[r.expr] = true
		}
		var err error
		if r.res, err = st.reg.Resolve(r.model, r.expr); err != nil {
			return nil, fmt.Errorf("resolve %q: %w", r.expr, err)
		}
		r.bound = float64(st.kdd.NumRows())
		if r.res.Calib != nil {
			r.bound = r.res.Exact
		}
		if r.body, err = json.Marshal(map[string]string{"model": r.model, "query": r.expr}); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// anchored combines a join resolution's predicate and calibration estimates
// as registry.Resolution documents: Exact * clamp01(pred / calib).
func anchored(res registry.Resolution, pred, calib float64) float64 {
	if res.Calib == nil {
		return pred
	}
	if len(res.Query.Preds) == len(res.Calib.Preds) {
		return res.Exact
	}
	if !(calib > 0) || !(pred > 0) {
		return 0
	}
	ratio := pred / calib
	if ratio > 1 {
		ratio = 1
	}
	return res.Exact * ratio
}

// directEstimates answers requests straight from the models, one batch per
// model holding every predicate and calibration query, and returns the
// exact count of each from internal/exec.
func directEstimates(st *kddState, reqs []request) (direct []float64, exact []int64) {
	var kq, vq []workload.Query
	for _, r := range reqs {
		if r.res.Calib == nil {
			kq = append(kq, r.res.Query)
		} else {
			vq = append(vq, r.res.Query, *r.res.Calib)
		}
	}
	kc := st.kddModel.EstimateCardBatch(kq)
	vc := st.viewMod.EstimateCardBatch(vq)
	for _, r := range reqs {
		if r.res.Calib == nil {
			direct = append(direct, kc[0])
			kc = kc[1:]
			exact = append(exact, exec.Cardinality(st.kdd, r.res.Query))
			continue
		}
		direct = append(direct, anchored(r.res, vc[0], vc[1]))
		vc = vc[2:]
		exact = append(exact, exec.Cardinality(st.view, r.res.Query))
	}
	return direct, exact
}

// serverRec is the server-side view of one traced request.
type serverRec struct {
	handlerUS float64
	spans     []obs.SpanSnapshot
}

// clientRec is the client-side view of one traced request.
type clientRec struct {
	id    string
	rttUS float64
}

// httpConn is one keep-alive HTTP/1.1 connection driven by a single caller,
// which writes each request and reads its reply on its own goroutine. Unlike
// net/http's client it starts no goroutines of its own, so the load generator
// adds few goroutine hand-offs and little CPU beside the server it measures.
type httpConn struct {
	conn net.Conn
	r    *bufio.Reader
	host string
	buf  []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{conn: c, r: bufio.NewReader(c), host: addr}, nil
}

// post sends a JSON POST to path, carrying traceID in the trace header when
// it is not empty, and returns the reply's status and body.
func (h *httpConn) post(path string, body []byte, traceID string) (int, []byte, error) {
	b := append(h.buf[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, h.host...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if traceID != "" {
		b = append(b, "\r\n"+obs.TraceHeader+": "...)
		b = append(b, traceID...)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	h.buf = b
	if _, err := h.conn.Write(b); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.r, nil)
	if err != nil {
		return 0, nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("read reply: %w", err)
	}
	return resp.StatusCode, reply, nil
}

// runKDDHTTP measures the HTTP path: single-expression POST /v1/estimate
// calls over 2 keep-alive connections, closed loop.
func runKDDHTTP(o options, chk *checker) (*outcome, error) {
	out := newOutcome()
	var eps []core.EpochStats
	st, setups, err := timedSetups(setupRepeats, func() (*kddState, error) {
		var ep []core.EpochStats
		s, err := buildKDD(&ep)
		eps = append(eps, ep...)
		return s, err
	}, func(s *kddState) { s.reg.Close() })
	if err != nil {
		return nil, err
	}
	defer st.reg.Close()
	out.set("setup_s", median(setups), len(setups))
	tps, n := tuplesPerSec(eps)
	out.set("core.train_tuples_per_s", tps, n)

	// One server, two faces: requests carrying a trace id go to a handler
	// whose suite traces, the rest to one that only counts. The outer
	// middleware times the handler from outside.
	tracer := newTracer()
	plainH := api.New(st.reg, nil, "", &obs.Suite{Metrics: st.met}).Handler()
	tracedH := api.New(st.reg, nil, "", &obs.Suite{Metrics: st.met, Tracer: tracer}).Handler()
	var srvMu sync.Mutex
	server := map[string]serverRec{}
	mw := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		if id == "" {
			plainH.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		tracedH.ServeHTTP(w, r)
		rec := serverRec{handlerUS: since(t0), spans: spansOf(tracer, id)}
		srvMu.Lock()
		server[id] = rec
		srvMu.Unlock()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mw}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	conns := make([]*httpConn, kddConns)
	defer func() {
		for _, hc := range conns {
			if hc != nil {
				hc.conn.Close()
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()
	for c := range conns {
		if conns[c], err = dialHTTP(ln.Addr().String()); err != nil {
			return nil, err
		}
	}

	post := func(hc *httpConn, r *request, traceID string) (float64, error) {
		status, body, err := hc.post("/v1/estimate", r.body, traceID)
		if err != nil {
			chk.failf("POST %q: %v", r.expr, err)
			return 0, err
		}
		if status != http.StatusOK {
			chk.failf("POST %q: status %d: %s", r.expr, status, body)
			return 0, fmt.Errorf("status %d", status)
		}
		var reply struct {
			Card *float64 `json:"card"`
		}
		if err := json.Unmarshal(body, &reply); err != nil || reply.Card == nil {
			chk.failf("POST %q: reply carries no card: %s", r.expr, body)
			return 0, errors.New("reply carries no card")
		}
		chk.card(r.expr, *reply.Card, r.bound)
		return *reply.Card, nil
	}

	probe, err := kddRequests(st, probeSize, -dataSeed)
	if err != nil {
		return nil, err
	}
	direct, exact := directEstimates(st, probe)
	got := make([]float64, len(probe))
	bounds := make([]float64, len(probe))
	for i := range probe {
		if got[i], err = post(conns[0], &probe[i], ""); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		bounds[i] = probe[i].bound
	}
	if err := setQError(out, gradeProbe(chk, got, direct, bounds, exact)); err != nil {
		return nil, err
	}

	// The pool, and so which expressions are hot, is the same in every run;
	// --seed drives the draws.
	pool, err := kddRequests(st, kddPool, dataSeed)
	if err != nil {
		return nil, err
	}
	zipfs := make([]*rand.Zipf, kddConns)
	for c := range zipfs {
		zipfs[c] = rand.NewZipf(rand.New(rand.NewSource(o.seed*31+int64(c))), kddZipfS, kddZipfV, uint64(len(pool)-1))
	}
	clients := make([][]clientRec, kddConns)
	sent := make([]int, kddConns)
	joins := make([]int, kddConns)
	call := func(c int, traced bool) (int, error) {
		r := &pool[zipfs[c].Uint64()]
		sent[c]++
		if r.res.Calib != nil {
			joins[c]++
		}
		id := ""
		if traced {
			id = fmt.Sprintf("pb-%d-%d", c, sent[c])
		}
		t0 := time.Now()
		if _, err := post(conns[c], r, id); err != nil {
			return 0, err
		}
		if traced {
			clients[c] = append(clients[c], clientRec{id: id, rttUS: since(t0)})
		}
		return 1, nil
	}
	closedLoop(kddConns, warmup, func(c int) (int, error) { return call(c, false) })
	before := sumStats(st.reg)
	steal := startSteal()
	plain, traced := measure(o, kddConns, call)
	out.stealMS = steal.ms()
	after := sumStats(st.reg)
	out.attempted = plain.calls + traced.calls
	out.failed = plain.failed + traced.failed
	if !o.trace {
		return out, setReadMetrics(out, plain)
	}

	setOverhead(out, plain, traced)
	setEngineCounters(out, before, after)
	nSent, nJoins := 0, 0
	for c := range sent {
		nSent += sent[c]
		nJoins += joins[c]
	}
	out.set("registry.calib_per_estimate", float64(nJoins)/float64(nSent), nSent)
	routeUS, routeN, joinUS, joinN := timeRoutes(st.reg, pool)
	out.set("registry.route_us", routeUS, routeN)
	out.set("registry.route_join_us", joinUS, joinN)
	// Single-table expressions run the SynKDD model; a join runs the view's
	// model on its predicate and calibration queries together, or on one of
	// them when the other hits the cache.
	var kq, vq []workload.Query
	for _, r := range pool {
		if r.res.Calib == nil {
			kq = append(kq, r.res.Query)
		} else {
			vq = append(vq, r.res.Query, *r.res.Calib)
		}
	}
	fwd := newForwardTimer()
	fwd.use("kdd", st.kddModel, kq)
	fwd.use("ocr", st.viewMod, vq)
	out.set("core.estimate_batch_us_per_query", fwd.cost(planKey{"kdd", 1}), forwardReps(1))
	out.set("made.plan_weight_bytes", float64(st.kddModel.WarmPlan()+st.viewMod.WarmPlan()), 2)

	l := newLedger()
	var handler, rtt float64
	for _, recs := range clients {
		for _, cr := range recs {
			sr, ok := server[cr.id]
			if !ok {
				continue
			}
			l.add(cr.rttUS, routedModel(sr.spans), sr.spans)
			handler += sr.handlerUS
			rtt += cr.rttUS
		}
	}
	if l.calls == 0 {
		return nil, errors.New("no traced request was matched to its server-side record")
	}
	handler /= float64(l.calls)
	rtt /= float64(l.calls)
	transportUS := selfTime(rtt, handler)
	route := l.perCall("route")
	out.set("api.handler_us", handler, l.calls)
	out.set("api.transport_us", transportUS, l.calls)
	setEngineLedger(out, l, fwd.cost, map[string]float64{
		"transport": transportUS,
		"route":     route,
		"handler": selfTime(handler, route, l.perCall("cache_lookup"), l.perCall("admission_wait"),
			l.perCall("batch_wait"), l.perCall("plan_exec")),
	})
	return out, nil
}

// routedModel returns the model a traced request's route span resolved it
// to, which is the model its plan_exec spans ran.
func routedModel(spans []obs.SpanSnapshot) string {
	for _, sp := range spans {
		if sp.Name == "route" {
			return sp.Attrs["model"]
		}
	}
	return ""
}

// sumStats adds up the engine counters of every registered model.
func sumStats(reg *registry.Registry) serve.Stats {
	var s serve.Stats
	for _, ms := range reg.Stats().PerModel {
		s.Requests += ms.Requests
		s.CacheHits += ms.CacheHits
		s.Batches += ms.Batches
		s.BatchedQueries += ms.BatchedQueries
	}
	return s
}

// timeRoutes resolves up to kddRouteSamples expressions of each kind from
// the pool directly and returns the mean Registry.Resolve time of single-
// table and join expressions.
func timeRoutes(reg *registry.Registry, pool []request) (single float64, ns int, join float64, nj int) {
	for _, r := range pool {
		isJoin := r.res.Calib != nil
		if (isJoin && nj >= kddRouteSamples) || (!isJoin && ns >= kddRouteSamples) {
			continue
		}
		t0 := time.Now()
		if _, err := reg.Resolve(r.model, r.expr); err != nil {
			continue
		}
		d := since(t0)
		if isJoin {
			join += d
			nj++
		} else {
			single += d
			ns++
		}
	}
	if ns > 0 {
		single /= float64(ns)
	}
	if nj > 0 {
		join /= float64(nj)
	}
	return single, ns, join, nj
}
