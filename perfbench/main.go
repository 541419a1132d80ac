// Command perfbench is Duet's benchmark: one workload per read path the
// serving stack has, each measured end to end from outside the program, plus
// a traced run that splits each workload's mean latency into per-layer self
// times and the remainder no layer accounts for.
//
//	bash perfbench/run.sh --workload dmv-batch --seed 1 --seconds 25 --trace 0
//
// Workloads (closed loops unless noted):
//
//   - dmv-batch: 2 in-process callers issue Registry.EstimateBatch with 64
//     pre-parsed SynDMV queries each. Stresses the packed-plan forward and the
//     masked product (batched O(1) inference); bypasses HTTP, parsing,
//     routing, the coalescer and cache hits.
//   - kdd-join-http: 2 keep-alive connections POST single expressions to
//     /v1/estimate on an in-process api.Server hosting SynKDD (100 columns)
//     and a 3-table join-graph view. Each connection is driven by one caller
//     with a minimal HTTP/1.1 client that starts no goroutines, so the load
//     generator takes little of the host's CPU from the server. Stresses
//     JSON, parsing, routing, join anchors, cache hits and the plan at
//     batch 1; bypasses the coalescer.
//   - census-ingest: 1 in-process reader calls Registry.Estimate (the
//     coalescing dispatcher) while an open-loop writer calls
//     Lifecycle.Ingest with drifting rows and Lifecycle.Feedback at a fixed
//     row rate, so the supervisor retrains and swaps during the run.
//     Stresses the coalescer and the lifecycle; bypasses HTTP and routing on
//     the read side.
//
// Tables, models and query pools are built from fixed seeds, so set-up work,
// the probe set's q-errors and the mix of queries repeat exactly; --seed
// drives only the order and the draws of the traffic.
//
// The host the benchmark shares can steal CPU time from it (the steal column
// of /proc/stat). Wall-clock figures are therefore taken over calm
// measurements only: those during which the host stole no more than it did
// in the median one. That is at least half of them, and all of them when the
// host stole nothing.
//
// End-to-end metrics, from an untraced run:
//
//   - setup_s: median over the calm ones of 3 builds of the program state
//     (tables, training, Registry.Add, Lifecycle.Manage).
//   - throughput_qps: median over the calm 0.5 s windows of estimates
//     answered per second by the closed loop (the writer's fixed rate is
//     never counted).
//   - latency_p50_us, latency_p99_us: per read call as the caller sees it,
//     over the calls that completed in a calm window; the median over up to
//     5 equal groups of them, in completion order, of each group's
//     percentile, refused when a group has fewer than 10 samples beyond it.
//   - cpu_us_per_estimate: process user+sys CPU over the timed phase divided
//     by estimates answered; it includes the in-process HTTP client and, on
//     census-ingest, the background retrains.
//   - qerror_p50, qerror_p95: q-error against internal/exec exact counts of a
//     fixed probe set answered through the workload's own path.
//   - peak_rss_mb: VmHWM of the whole run.
//
// The traced run alternates untraced and traced segments. Traced calls carry
// an obs trace; the engine's stage spans, the benchmark's own timers around
// module calls and direct timings of single modules give per-layer self
// times, and ledger.unattributed_us is what their sum leaves of the mean
// end-to-end latency. Every traced run reports every per-layer metric; a
// layer the workload bypasses reports 0 over 0 samples.
//
// The last line of standard output is the result object; the line before it
// carries run metadata, output-check failures, sample counts and every figure
// measured, including those of the mode not reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// options are the benchmark's command-line inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec names a metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics every workload reports untraced.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_estimate", "us"},
	{"qerror_p50", "ratio"},
	{"qerror_p95", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// bypasses reports 0 with a sample count of 0: it adds nothing to that
// workload's ledger.
var perLayer = []spec{
	{"api.handler_us", "us"},
	{"api.transport_us", "us"},
	{"registry.route_us", "us"},
	{"registry.route_join_us", "us"},
	{"registry.calib_per_estimate", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_lookup_us", "us"},
	{"serve.admission_wait_us", "us"},
	{"serve.batch_wait_us", "us"},
	{"serve.plan_exec_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.backend_wait_us", "us"},
	{"core.estimate_batch_us_per_query", "us"},
	{"core.train_tuples_per_s", "1/s"},
	{"made.plan_weight_bytes", "bytes"},
	{"lifecycle.ingest_us_per_row", "us"},
	{"relation.append_us_per_row", "us"},
	{"lifecycle.feedback_us", "us"},
	{"lifecycle.retrains", "count"},
	{"lifecycle.train_s", "s"},
	{"registry.swap_us", "us"},
	{"loadgen.write_lag_ms", "ms"},
	{"write_latency_p50_us", "us"},
	{"retrain_s", "s"},
	{"error_rate", "ratio"},
	{"ledger.unattributed_us", "us"},
	{"trace.overhead_pct", "%"},
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int64
	stealMS           float64 // host steal time during the timed phase
	values            map[string]float64
	samples           map[string]int
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a figure and the number of samples it rests on.
func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

var workloads = map[string]func(options, *checker) (*outcome, error){
	"dmv-batch":     runDMV,
	"kdd-join-http": runKDDHTTP,
	"census-ingest": runCensusIngest,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: dmv-batch, kdd-join-http or census-ingest")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated traffic")
	flag.Float64Var(&o.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	chk := &checker{}
	out, err := fn(o, chk)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.set("peak_rss_mb", rss, 1)
	if out.attempted > 0 {
		out.set("error_rate", float64(out.failed)/float64(out.attempted), int(out.attempted))
	}

	want := endToEnd
	if o.trace {
		want = perLayer
		for _, s := range perLayer {
			if _, ok := out.values[s.name]; !ok {
				out.set(s.name, 0, 0)
			}
		}
	}
	res := result{Correct: chk.ok(), Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, s := range want {
		v, ok := out.values[s.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is not finite", o.workload, s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if out.attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", o.workload)
	}

	// Everything measured, including the other mode's figures, goes on the
	// line before the result.
	units := map[string]string{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		units[s.name] = s.unit
	}
	all := map[string]metric{}
	for name, v := range out.values {
		all[name] = metric{Value: v, Unit: units[name]}
	}
	rm := newRunMeta(o)
	rm.StealMS = out.stealMS
	meta := struct {
		Meta    runMeta           `json:"meta"`
		Checks  []string          `json:"failed_checks,omitempty"`
		Samples map[string]int    `json:"samples"`
		All     map[string]metric `json:"measured"`
	}{Meta: rm, Checks: chk.messages(), Samples: out.samples, All: all}
	if err := printJSON(meta); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d output checks failed", o.workload, chk.count())
	}
	return nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// since returns the time elapsed from t0 in microseconds.
func since(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Microsecond)
}
