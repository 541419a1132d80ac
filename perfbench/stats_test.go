package main

import (
	"math"
	"testing"
	"time"

	"duet/internal/obs"
)

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.1, 14}, {0.99, 49.6},
	} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestGuardedPercentileRefusesThinTails(t *testing.T) {
	samples := make([]float64, 999)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i) // descending: the guard must sort
	}
	if _, err := guardedPercentile(samples, 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	samples = append(samples, 999)
	got, err := guardedPercentile(samples, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if want := 989.01; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	if _, err := guardedPercentile(make([]float64, 19), 0.5); err == nil {
		t.Error("a median of 19 samples has 9 beyond it and must be refused")
	}
	if beyond(20, 0.5) != 10 || beyond(1000, 0.99) != 10 || beyond(100, 0.95) != 5 {
		t.Error("beyond miscounts the tail")
	}
}

func TestWindowedPercentileIsMedianOfWindows(t *testing.T) {
	flat := func(v float64) []float64 {
		w := make([]float64, 1000)
		for i := range w {
			w[i] = v
		}
		return w
	}
	burst := flat(10)
	for i := 0; i < 50; i++ {
		burst[i] = 1000 // host interference in one window only
	}
	got, err := windowedPercentile([][]float64{flat(10), burst, flat(12)}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Errorf("windowed p99 = %v, want 12: a burst in one window must not set it", got)
	}
	if _, err := windowedPercentile([][]float64{flat(10), flat(10)[:500]}, 0.99); err == nil {
		t.Error("a window with too thin a tail must refuse the percentile")
	}
	if _, err := windowedPercentile(nil, 0.5); err == nil {
		t.Error("no windows must refuse the percentile")
	}
}

func TestWindowsAndCPUPerEstimate(t *testing.T) {
	t0 := time.Unix(0, 0)
	ticks := []tick{
		{at: t0},
		{at: t0.Add(500 * time.Millisecond), estimates: 1000},
		{at: t0.Add(time.Second), estimates: 1000}, // a stalled window
		{at: t0.Add(2 * time.Second), estimates: 3000},
		{at: t0.Add(2500 * time.Millisecond), estimates: 4500},
	}
	ws := windows(ticks)
	want := []float64{2000, 0, 2000, 3000}
	if len(ws) != len(want) {
		t.Fatalf("%d windows, want %d", len(ws), len(want))
	}
	for i := range want {
		if ws[i].qps != want[i] || ws[i].to != ticks[i+1].at {
			t.Errorf("window %d = %+v, want %v estimates/s up to tick %d", i, ws[i], want[i], i+1)
		}
	}
	if got := medianQPS(ws); got != 2000 {
		t.Errorf("median qps = %v, want 2000: one stalled window must not move it", got)
	}
	if got := cpuPerEstimate(1900*time.Millisecond, 3800); got != 500 {
		t.Errorf("cpu per estimate = %v us, want 500", got)
	}
	if !math.IsNaN(cpuPerEstimate(time.Second, 0)) {
		t.Error("CPU per estimate with no estimates should be NaN")
	}
}

func TestCalmLeavesOutStolenWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ticks []tick
	// Eight windows of 2000 estimates/s; the host steals from the five
	// marked ones, which slow down in proportion, so the median over all
	// eight would be 1700.
	stolen := map[int]uint64{1: 20, 2: 40, 4: 30, 5: 10, 6: 60}
	n, st := int64(0), uint64(0)
	for i := 0; i <= 8; i++ {
		ticks = append(ticks, tick{at: t0.Add(time.Duration(i) * 500 * time.Millisecond), estimates: n, steal: st})
		st += stolen[i]
		n += 1000 - 10*int64(stolen[i])
	}
	ws := windows(ticks)
	if got := medianQPS(ws); got != 2000 {
		t.Errorf("median qps = %v, want 2000: stolen windows must not move it", got)
	}
	if got := calm([]uint64{0, 0, 0}); got[0] != true || got[1] != true || got[2] != true {
		t.Errorf("calm(no steal) = %v, want every measurement kept", got)
	}
	if got := calm([]uint64{30, 5, 20}); got[0] || !got[1] || !got[2] {
		t.Errorf("calm(30, 5, 20) = %v, want the two least stolen kept", got)
	}
}

func TestLatencyGroupsKeepTheP99Tail(t *testing.T) {
	lat := make([]float64, 4321)
	for i := range lat {
		lat[i] = float64(i)
	}
	gs := latencyGroups(lat)
	if len(gs) != 4 {
		t.Fatalf("%d groups of %d samples, want 4", len(gs), len(lat))
	}
	next := 0.0
	for i, g := range gs {
		if _, err := guardedPercentile(g, 0.99); err != nil {
			t.Errorf("group %d: %v", i, err)
		}
		if g[0] != next {
			t.Errorf("group %d starts at sample %v, want %v: groups must follow completion order", i, g[0], next)
		}
		next = g[len(g)-1] + 1
	}
	if next != float64(len(lat)) {
		t.Errorf("groups end at sample %v, want %d", next, len(lat))
	}
	if gs := latencyGroups(lat[:999]); len(gs) != 1 {
		t.Errorf("%d groups of 999 samples, want 1", len(gs))
	}
	if gs := latencyGroups(make([]float64, 50000)); len(gs) != latencyWindows {
		t.Errorf("%d groups of 50000 samples, want %d", len(gs), latencyWindows)
	}
}

func TestSelfTimeAndLedger(t *testing.T) {
	if got := selfTime(100, 30, 20.5); got != 49.5 {
		t.Errorf("selfTime = %v, want 49.5", got)
	}
	self := map[string]float64{"transport": 40, "route": 10, "plan": 35}
	if got := unattributed(100, self); got != 15 {
		t.Errorf("unattributed = %v, want 15", got)
	}
	l := newLedger()
	l.add(100, "m", nil)
	l.add(300, "m", nil)
	if l.perCall("plan_exec") != 0 {
		t.Error("a stage no call entered must count as 0")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if mean(nil) != 0 {
		t.Error("mean of nothing should be 0")
	}
}

// TestLedgerChargesForwardByModelAndSize checks that each plan_exec span is
// charged with the forward cost of its own model and batch size.
func TestLedgerChargesForwardByModelAndSize(t *testing.T) {
	plan := func(size string, us int64) obs.SpanSnapshot {
		return obs.SpanSnapshot{Name: "plan_exec", DurationUS: us, Attrs: map[string]string{"batch_size": size}}
	}
	a, b := newLedger(), newLedger()
	a.add(100, "single", []obs.SpanSnapshot{plan("1", 30)})
	a.add(200, "join", []obs.SpanSnapshot{plan("2", 70)})
	b.add(150, "join", []obs.SpanSnapshot{plan("1", 50)})
	b.add(50, "single", nil) // a cache hit: no forward
	a.merge(b)
	cost := map[planKey]float64{{"single", 1}: 20, {"join", 2}: 60, {"join", 1}: 40}
	// (20 + 60 + 40) us of forwards over 4 calls.
	if got := a.forwardPerCall(func(k planKey) float64 { return cost[k] }); got != 30 {
		t.Errorf("forward per call = %v, want 30", got)
	}
	if got := a.perCall("plan_exec"); got != 37.5 {
		t.Errorf("plan_exec per call = %v, want 37.5", got)
	}
	out := newOutcome()
	setEngineLedger(out, a, func(k planKey) float64 { return cost[k] }, map[string]float64{"handler": 50})
	// Mean end-to-end 125 us: plan_exec 37.5 (forward 30 + backend wait 7.5)
	// and handler 50 leave 37.5.
	if got := out.values["serve.backend_wait_us"]; got != 7.5 {
		t.Errorf("backend wait = %v, want 7.5", got)
	}
	if got := out.values["ledger.unattributed_us"]; got != 37.5 {
		t.Errorf("unattributed = %v, want 37.5", got)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(100, 0)
	period := 100 * time.Millisecond
	due := dueAt(start, period, 3)
	if want := start.Add(300 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("dueAt = %v, want %v", due, want)
	}
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("an early start is %v late, want 0", got)
	}
	if got := lateness(due, due.Add(7*time.Millisecond)); got != 7*time.Millisecond {
		t.Errorf("lateness = %v, want 7ms", got)
	}
	// A stall does not shift the schedule: the operation after a 250 ms
	// stall at k=3 is still due at k=4, and runs late by what is left of it.
	resumed := due.Add(250 * time.Millisecond)
	if got := lateness(dueAt(start, period, 4), resumed); got != 150*time.Millisecond {
		t.Errorf("lateness after a stall = %v, want 150ms", got)
	}
}
