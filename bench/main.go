// Command bench is the repository's performance benchmark (see README.md
// in this directory and BENCHMARK.json at the repository root).
//
//	bench -workload steady_1cam -seed 1 -seconds 10 -trace 0
//
// runs one workload once and prints, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics}. -trace 0 measures
// the end-to-end metrics with observability off; -trace 1 re-runs the
// workload with observability on, replays every layer through its public
// functions, and prints the per-layer metrics.
//
//	bench -runs 10 -out A.json      a result set: every workload, ten seeds, both passes
//	bench -compare A.json B.json    verdict per workload × end-to-end metric
//	bench -aa -runs 10              two result sets of the same code, compared
//
// -workload and -trace narrow a result set to one workload or one pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// buildDir is where run.sh puts the binaries and where runs keep their
// scratch files; .gitignore names it.
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
		seed     = flag.Uint64("seed", 1, "workload seed: frame pools are generated from it")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, observability off; 1: per-layer metrics, observability on; a result set defaults to both")
		runs     = flag.Int("runs", 1, "runs per workload of a result set, on consecutive seeds")
		out      = flag.String("out", "", "write the result set to this file")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare BASE.json NEW.json")
		aa       = flag.Bool("aa", false, "run two result sets of this code and compare them")
	)
	if setupChild() {
		return
	}
	flag.Parse()
	spec, err := loadSpec(benchmarkFile)
	if err != nil {
		fatal(fmt.Errorf("%w (run from the repository root)", err))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1)))
	case *aa:
		os.Exit(runAA(spec, *workload, *seed, *seconds, *runs, *trace))
	case *workload == "all" || *runs > 1 || *out != "":
		set, err := runSuite(spec, *workload, *seed, *seconds, *runs, *trace)
		if err != nil {
			fatal(err)
		}
		set.print(os.Stdout)
		if *out != "" {
			if err := set.write(*out); err != nil {
				fatal(err)
			}
		}
		if set.failed() {
			os.Exit(1)
		}
	default:
		if !spec.hasWorkload(*workload) {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runOne(newRun(spec, *workload, *seed, *seconds, *trace == 1))
		if err != nil {
			fatal(err)
		}
		printResult(res)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// workloadSpecific are the per-layer metrics only some workloads produce;
// they read 0 on the others.
var workloadSpecific = []string{
	"drift.recovery_s", "drift.map_after_recovery", "cluster.drift_delay_frames",
	"http.ingest_frames_per_s", "http.query_frames_per_s", "serve.http_overhead_us_per_frame",
	"harness.gen_late_p99_ms", "core.stale_served_share", "drift.reuse_share",
	"qos.depth_max", "qos.transitions",
}

// newRun prepares one run of one workload. An end-to-end pass times three
// whole set-ups; the traced pass does not report setup_s and sets up once.
func newRun(spec *benchSpec, workload string, seed uint64, seconds float64, trace bool) *run {
	r := &run{
		spec: spec, workload: workload, seed: seed, seconds: seconds, trace: trace,
		nproc:     runtime.GOMAXPROCS(0),
		setupReps: 3,
		rep:       newReport(spec.EndToEnd),
	}
	if trace {
		r.setupReps = 1
		r.rep = newReport(spec.PerLayer)
		r.spans = newSpanLog()
	}
	return r
}

// runOne runs one workload once in this process.
func runOne(r *run) (*runResult, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	r.speed = startSpeedometer()
	defer r.speed.stop()
	if r.ckpt == "" {
		r.ckpt = filepath.Join(dir, "shared.ckpt")
	}
	switch r.workload {
	case "steady_1cam":
		err = r.steady1cam()
	case "drift_4cam":
		err = r.drift4cam()
	case "burst_qos_4cam":
		err = r.burstQoS4cam()
	case "http_2cam":
		err = r.http2cam()
	default:
		err = fmt.Errorf("workload %q is in %s but not in the program", r.workload, benchmarkFile)
	}
	if err != nil {
		return nil, err
	}
	if r.trace {
		if err := r.layerReplay(); err != nil {
			return nil, err
		}
		path := filepath.Join(buildDir, "trace_"+r.workload+".json")
		if err := r.spans.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(r.spans.spans), path)
	}
	r.rep.set("failed_share", float64(r.failed)/float64(max(r.attempted, 1)))
	for _, name := range workloadSpecific {
		r.rep.setDefault(name, 0)
	}
	m, err := r.rep.metrics()
	if err != nil {
		return nil, err
	}
	return &runResult{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: m}, nil
}

// printResult prints every metric by name with its unit, then the result
// object as the last line.
func printResult(res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
