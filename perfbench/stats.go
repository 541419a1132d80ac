package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the fewest samples that must lie beyond a reported percentile.
// A percentile with a thinner tail is refused rather than printed.
const minTail = 10

// percentile returns the q-quantile (0 <= q <= 1) of ascending samples,
// interpolating linearly between the two closest ranks.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// beyond is the number of samples out of n that lie past the q-quantile.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// guardedPercentile returns the q-quantile of samples (in any order), or an
// error when fewer than minTail samples lie beyond it.
func guardedPercentile(samples []float64, q float64) (float64, error) {
	if b := beyond(len(samples), q); b < minTail {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", q*100, len(samples), b, minTail)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return percentile(sorted, q), nil
}

// windowedPercentile returns the median over windows of each window's
// q-quantile. Every window must pass the guardedPercentile tail check.
func windowedPercentile(windows [][]float64, q float64) (float64, error) {
	if len(windows) == 0 {
		return 0, fmt.Errorf("no latency windows")
	}
	per := make([]float64, len(windows))
	for i, w := range windows {
		v, err := guardedPercentile(w, q)
		if err != nil {
			return 0, fmt.Errorf("window %d: %w", i, err)
		}
		per[i] = v
	}
	return median(per), nil
}

// median returns the middle value of samples (in any order); NaN when empty.
func median(samples []float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return percentile(sorted, 0.5)
}

// mean returns the arithmetic mean of samples; 0 when empty, so a layer that
// a workload never enters contributes nothing to its ledger.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// tick is one reading of the closed loop's progress counters.
type tick struct {
	at        time.Time
	estimates int64
	steal     uint64 // host steal so far in USER_HZ ticks; 0 throughout when unknown
}

// window is the stretch between two consecutive ticks.
type window struct {
	to    time.Time // when it ends
	qps   float64   // estimates answered per second
	steal uint64    // host steal within it, in USER_HZ ticks
}

// windows turns consecutive ticks into windows.
func windows(ticks []tick) []window {
	var out []window
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		if sec := b.at.Sub(a.at).Seconds(); sec > 0 {
			out = append(out, window{to: b.at, qps: float64(b.estimates-a.estimates) / sec, steal: b.steal - a.steal})
		}
	}
	return out
}

// calm marks the measurements the host left alone: those during which it
// stole no more CPU time than the median over all of them. At least half
// always qualify, and all of them when the host stole nothing, so a figure
// taken over the calm ones measures the program rather than the host
// without dropping anything on a quiet host.
func calm(steals []uint64) []bool {
	s := make([]float64, len(steals))
	for i, v := range steals {
		s[i] = float64(v)
	}
	m := median(s)
	ok := make([]bool, len(steals))
	for i, v := range s {
		ok[i] = v <= m
	}
	return ok
}

// calmWindows marks the calm windows.
func calmWindows(ws []window) []bool {
	steals := make([]uint64, len(ws))
	for i, w := range ws {
		steals[i] = w.steal
	}
	return calm(steals)
}

// latencyGroups splits latency samples, in completion order, into up to
// latencyWindows groups of equal size: as many as leave minTail samples
// beyond each group's p99, and at least one.
func latencyGroups(lat []float64) [][]float64 {
	g := min(latencyWindows, max(1, len(lat)/(100*minTail)))
	out := make([][]float64, g)
	for i := range out {
		out[i] = lat[i*len(lat)/g : (i+1)*len(lat)/g]
	}
	return out
}

// cpuPerEstimate divides process CPU time by the estimates answered in it,
// in microseconds per estimate. It is taken over a whole phase: CPU time does
// not accrue while the process is stalled, and a per-window median would
// flip between windows with and without a background retrain.
func cpuPerEstimate(cpu time.Duration, estimates int64) float64 {
	if estimates <= 0 {
		return math.NaN()
	}
	return float64(cpu) / float64(time.Microsecond) / float64(estimates)
}

// medianQPS returns the median throughput over the calm windows. A median
// over windows keeps a brief stall from moving the run's figure, and leaving
// out the windows in which the host stole the most CPU time keeps a shared
// host's steal from moving it.
func medianQPS(ws []window) float64 {
	ok := calmWindows(ws)
	var q []float64
	for i, w := range ws {
		if ok[i] {
			q = append(q, w.qps)
		}
	}
	return median(q)
}

// selfTime is a layer's own time: its span minus the time its child spans
// cover.
func selfTime(total float64, children ...float64) float64 {
	for _, c := range children {
		total -= c
	}
	return total
}

// unattributed closes a ledger: the mean end-to-end latency minus the sum of
// the mean self times of the layers measured inside it.
func unattributed(endToEnd float64, selfTimes map[string]float64) float64 {
	s := 0.0
	for _, v := range selfTimes {
		s += v
	}
	return endToEnd - s
}

// lateness is how far behind its schedule an open-loop generator started an
// operation due at due; never negative.
func lateness(due, started time.Time) time.Duration {
	if d := started.Sub(due); d > 0 {
		return d
	}
	return 0
}

// dueAt returns the k-th send instant of an open-loop schedule that starts
// at start and sends every period. Schedules advance from the start, not
// from the previous send, so a stall makes later operations late instead of
// silently lowering the offered rate.
func dueAt(start time.Time, period time.Duration, k int) time.Time {
	return start.Add(time.Duration(k) * period)
}
