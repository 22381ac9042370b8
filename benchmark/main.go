// Command cobra-workloads is the COBRA workload benchmark. It drives the
// system through its public functions on three named workloads, checks
// every answer, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer breakdown from a traced run) as one JSON object on the last
// line of standard output.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload whatif-serve --seed 1 --seconds 30 --trace 0
//
// The workloads, and the layer each per-layer metric belongs to, are listed
// in benchmark/layers.json; BENCHMARK.json at the root names the gated
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*report, error){
	"whatif-serve":        runWhatifServe,
	"tpch-capture":        runTPCHCapture,
	"telephony-outofcore": runOutOfCore,
}

// endToEnd lists the gated end-to-end metrics every workload reports with
// --trace 0, in output order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"success_rate", "ratio"},
	{"max_rel_err", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics every workload reports with
// --trace 1. A layer a workload does not call reports 0.
var perLayer = []metricDef{
	{"sql.plan_ms", "ms"},
	{"engine.exec_ms", "ms"},
	{"engine.rows_out", "count"},
	{"engine.alloc_mb", "MB"},
	{"provenance.instrument_ms", "ms"},
	{"provenance.render_ms", "ms"},
	{"provenance.monomials", "count"},
	{"provenance.alloc_mb", "MB"},
	{"polyio.read_ms", "ms"},
	{"polyio.evict_ms", "ms"},
	{"polyio.reload_ms", "ms"},
	{"polyio.evict_bytes", "bytes"},
	{"polynomial.shards", "count"},
	{"polynomial.spilled_shards", "count"},
	{"polynomial.peak_resident_monomials", "count"},
	{"polynomial.spill_bytes", "bytes"},
	{"core.compress_ms", "ms"},
	{"core.frontier_ms", "ms"},
	{"core.compressed_size", "count"},
	{"core.num_meta", "count"},
	{"core.alloc_mb", "MB"},
	{"abstraction.apply_ms", "ms"},
	{"abstraction.monomials_out", "count"},
	{"valuation.compile_ms", "ms"},
	{"valuation.eval_us_per_scenario", "us"},
	{"valuation.sharded_eval_ms", "ms"},
	{"valuation.monomial_evals", "count"},
	{"serve.handler_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.response_bytes", "bytes"},
	{"serve.non2xx", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.layer_share", "ratio"},
	{"harness.share", "ratio"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cobra-workloads", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: whatif-serve, tpch-capture or telephony-outofcore")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 30, "length of the measured region in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	workdir := fs.String("workdir", ".bench_build", "directory for spill files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: cobra-workloads --workload <%s> --seed <n> --seconds <n> --trace <0|1>\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      dir,
		scale:    paperScale,
	}
	start := time.Now()
	rep, err := runner(e)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *workload, err)
		return 1
	}
	if e.trace {
		path := filepath.Join(*workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := rep.tracer.writeFile(path); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "spans written to %s\n", path)
	}
	res := rep.result(e.trace)
	info := rep.info(e, time.Since(start))
	printTable(stderr, *workload, info, res)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"run": info}); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func workloadNames() string {
	return strings.Join(slices.Sorted(maps.Keys(workloads)), "|")
}

// runInfo is the run's metadata, printed on the line before the result.
type runInfo struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	NProc     int                    `json:"nproc"`
	GOMAXPROC int                    `json:"gomaxprocs"`
	GoVersion string                 `json:"go_version"`
	Ops       int                    `json:"ops"`
	RunS      float64                `json:"run_s"`
	TotalS    float64                `json:"total_s"`
	Setups    int                    `json:"setups"`
	Harness   float64                `json:"harness_share"`
	Steal     float64                `json:"cpu_steal_share"`   // host steal time over the measured region
	Windows   []window               `json:"windows,omitempty"` // measurement windows of the untraced phase
	Kept      int                    `json:"windows_kept"`      // windows the metrics are taken over (see keepWindows)
	Extra     map[string]metricValue `json:"extra,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
}

func (r *report) info(e *env, total time.Duration) runInfo {
	p := r.phase
	ops := p.attempted
	if r.traced != nil {
		ops += r.traced.attempted
	}
	info := runInfo{
		Workload:  e.workload,
		Seed:      e.seed,
		Trace:     e.trace,
		NProc:     runtime.NumCPU(),
		GOMAXPROC: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
		Ops:       ops,
		RunS:      p.wall.Seconds(),
		TotalS:    total.Seconds(),
		Setups:    len(r.setup),
		Harness:   p.harnessShare(),
		Steal:     r.stealShare,
		Windows:   r.windows,
		Kept:      len(r.kept),
		Extra:     r.extra,
		Errors:    p.errs,
	}
	if info.Extra == nil {
		info.Extra = map[string]metricValue{}
	}
	info.Extra["error_rate"] = metricValue{float64(p.failed) / float64(max(p.attempted, 1)), "ratio"}
	if len(p.lat) >= 1000 {
		info.Extra["op_p99_ms"] = metricValue{percentile(p.lat, 0.99), "ms"}
	}
	return info
}

func printTable(w io.Writer, workload string, info runInfo, res result) {
	fmt.Fprintf(w, "%s seed=%d ops=%d run=%.1fs nproc=%d gomaxprocs=%d %s steal=%.3f windows=%d/%d\n",
		workload, info.Seed, info.Ops, info.RunS, info.NProc, info.GOMAXPROC, info.GoVersion, info.Steal, info.Kept, len(info.Windows))
	all := maps.Clone(info.Extra)
	maps.Copy(all, res.Metrics)
	names := slices.Sorted(maps.Keys(all))
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, all[n].Value, all[n].Unit)
	}
	for _, e := range info.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// errCheck marks an answer that failed its correctness check.
var errCheck = errors.New("wrong answer")
