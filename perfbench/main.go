// Command perfbench is flowrel's benchmark. One run measures one
// workload for a fixed time and checks every answer:
//
//	perfbench -workload cold-compile -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics a caller sees; with
// -trace 1 it alternates traced and untraced ops and reports per-layer
// metrics from spans the benchmark records around public calls, the
// solver's own tracer events and registry counters, and relcalcd's
// /statsz and /debug/vars. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A wrong answer
// makes the run exit 1; an error before a result exits 2.
//
// perfbench/run.sh builds this program and relcalcd from the checkout and
// runs it; README.md in this directory documents the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload gets from the command line.
type env struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	relcalcd string // relcalcd binary, for service-mix
	outDir   string // trace files and relcalcd's address file; "" = none
}

// report is what a workload measured.
type report struct {
	attempted int64
	errors    int64 // calls that returned an error or were refused
	wrong     int64 // answers the checks rejected
	units     float64
	elapsed   time.Duration
	lat       []int64   // per-op latency of untraced ops, ns
	setups    []float64 // seconds, one per set-up repetition
	peakKB    int64
	gate      string             // the steal filter's effect, for the log
	layers    map[string]float64 // traced run only
}

var workloads = map[string]func(env) (*report, error){
	"cold-compile": runColdCompile,
	"whatif-eval":  runWhatIf,
	"churn-stream": runChurn,
	"service-mix":  runService,
}

// endToEnd and perLayer name every metric with its unit, in the order
// BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"throughput_per_s", "1/s"},
	{"latency_us_p50", "us"},
	{"latency_us_p99", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"mincut.cut_search_us", "us"},
	{"core.side_build_us", "us"},
	{"core.max_flow_calls", "count/op"},
	{"core.augmenting_paths", "count/op"},
	{"core.frontier_call_ratio", "ratio"},
	{"core.compile_us", "us"},
	{"flowrel.compute_rest_us", "us"},
	{"core.eval_ns_per_scenario", "ns"},
	{"core.eval_lane_fill", "ratio"},
	{"core.eval_bytes_per_scenario", "B"},
	{"core.segment_sums_per_scenario", "count"},
	{"core.delta_compile_us", "us"},
	{"flowrel.mutate_rest_us", "us"},
	{"core.delta_fallback_ratio", "ratio"},
	{"core.delta_reuse_ratio", "ratio"},
	{"flowrel.plancache_hit_ratio", "ratio"},
	{"flowrel.plancache_evictions", "count/op"},
	{"relcalcd.compute_us.eval", "us"},
	{"relcalcd.compute_us.evalbatch", "us"},
	{"relcalcd.compute_us.mutate", "us"},
	{"relcalcd.compute_us.compile", "us"},
	{"relcalcd.overhead_us", "us"},
	{"relcalcd.rejected_ratio", "ratio"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.heap_live_mb", "MB"},
	{"trace.unattributed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"error_rate", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "cold-compile, whatif-eval, churn-stream or service-mix")
		seed     = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 10, "length of the timed phase")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		relcalcd = fs.String("relcalcd", "", "relcalcd binary (service-mix)")
		outDir   = fs.String("out", "", "directory for trace files and relcalcd's address file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload one of cold-compile, whatif-eval, churn-stream, service-mix; -seconds ≥ 1; -trace 0 or 1\n")
		return 2
	}
	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, relcalcd: *relcalcd, outDir: *outDir}
	rep, err := wl(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	order := endToEnd
	if e.trace {
		order = perLayer
	}
	res := assemble(rep, order, e.trace)
	if !e.trace {
		fmt.Fprintf(stderr, "latency samples %d: p50 %.1f p90 %.1f p95 %.1f p99 %.1f p99.9 %.1f us\n", len(rep.lat),
			float64(percentile(rep.lat, 50))/1e3, float64(percentile(rep.lat, 90))/1e3, float64(percentile(rep.lat, 95))/1e3,
			float64(percentile(rep.lat, 99))/1e3, float64(percentile(rep.lat, 99.9))/1e3)
	}
	fmt.Fprintln(stderr, rep.gate)
	for _, k := range order {
		fmt.Fprintf(stdout, "%-32s %14.4f %s\n", k.name, res.Metrics[k.name].Value, k.unit)
	}
	fmt.Fprintf(stdout, "%-32s %14d\n%-32s %14d (errors %d, wrong answers %d)\n", "attempted", res.Attempted, "failed", res.Failed, rep.errors, rep.wrong)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong answers\n", *name, rep.wrong)
		return 1
	}
	return 0
}

// assemble turns a workload's measurements into the result line with the
// metrics of order (0 for a layer the workload does not reach).
func assemble(rep *report, order []struct{ name, unit string }, trace bool) result {
	failed := rep.errors + rep.wrong
	res := result{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: failed, Metrics: map[string]metric{}}
	var vals map[string]float64
	if trace {
		vals = rep.layers
		if vals == nil {
			vals = map[string]float64{}
		}
		vals["error_rate"] = ratio(float64(failed), float64(rep.attempted))
	} else {
		vals = map[string]float64{
			"throughput_per_s": rep.units / rep.elapsed.Seconds(),
			"latency_us_p50":   float64(percentile(rep.lat, 50)) / 1e3,
			"latency_us_p99":   float64(percentile(rep.lat, 99)) / 1e3,
			"peak_rss_mb":      float64(rep.peakKB) / 1024,
			"setup_s":          median(rep.setups),
		}
	}
	for _, k := range order {
		res.Metrics[k.name] = metric{Value: vals[k.name], Unit: k.unit}
	}
	return res
}

// tracePeriod is the timedLoop period: cycle in a traced run, else 0.
func (e env) tracePeriod(cycle int) int {
	if !e.trace {
		return 0
	}
	return cycle
}

// traceFile is where a traced run writes its kept spans ("" = nowhere).
func (e env) traceFile(workload string) string {
	if e.outDir == "" {
		return ""
	}
	return filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, e.seed))
}
