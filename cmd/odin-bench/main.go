// Command odin-bench regenerates the paper's tables and figures, plus the
// self-gating subsystem experiments of the Server/Stream API.
//
// Usage:
//
//	odin-bench [-scale quick|full] [-exp all|fig1|fig2|fig4|fig5|table1|
//	            table2|fig8|table3|table4|table5|fig9|table6|table7|
//	            ablation|query|dispatch|backend|fleet-recovery|restore|
//	            overload|obs]
//	            [-out <dir>] [-v]
//
// Experiments share one context, so models trained for an earlier
// experiment are reused by later ones. Seven experiments drive the public
// odin.Server API instead; each writes its JSON document as
// BENCH_<experiment>.json under -out (default the current directory) and
// fails the run when its gate is missed. "query" measures prepared-query
// throughput vs per-call parse plus the overhead of a standing
// Stream.Subscribe query vs a bare Run session, "dispatch" measures the
// fleet dispatcher — per-stream vs cross-stream batched throughput at
// 1/2/4/8 cameras and the recovery-stall p99 with inline vs async drift
// training, "backend" compares the float32 compute backend against the
// float64 reference on matmul/conv microkernels and end-to-end
// DetectBatch, gating a ≥1.5× float32 speedup, "fleet-recovery" (→
// BENCH_fleet_recovery.json) measures the fleet model registry — four
// cameras drifting through the same dawn, gating a ≥2× reduction in
// scratch trainings via adopt/coalesce plus bit-identical registry-on
// results across worker counts, "restore" measures warm restart from a
// checkpoint against cold re-bootstrap, gating a ≥5× time-to-first-
// detection speedup plus a bit-identical post-checkpoint tail replay,
// "overload" drives a four-camera bursty fleet at ~4× the calibrated
// service rate through bounded admission queues, gating that adaptive
// fidelity degradation bounds the worst per-camera p99 at ≤1/3 of the
// non-adaptive arm with zero silent frame loss, full-fidelity restoration
// after the burst, at-capacity bit-identity with the non-QoS path, and a
// deterministic script replay of the live run's admission decisions, and
// "obs" measures the observability layer's cost — gating ≤5% steady-state
// throughput overhead, zero added allocations per frame on the hot path,
// and bit-identical drift-stream fingerprints with obs on and off at
// 1/4/8 workers.
//
// Serving throughput and latency are measured by the repository benchmark
// (bench/, BENCHMARK.json), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"odin/internal/exp"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	expFlag := flag.String("exp", "all", "comma-separated experiment ids or 'all'")
	outDir := flag.String("out", ".", "directory the Server-API experiments write their BENCH_<experiment>.json documents to")
	verbose := flag.Bool("v", false, "log model-training progress")
	flag.Parse()

	scale, err := exp.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx := exp.NewContext(scale)
	if *verbose {
		ctx.SetLog(os.Stderr)
	}
	// bench adapts a self-gating Server-API experiment: a missed gate (or
	// any other error) fails the whole run.
	bench := func(run func(exp.Scale, string, io.Writer) error) func() {
		return func() {
			if err := run(scale, *outDir, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	runners := []struct {
		id  string
		run func()
	}{
		{"fig1", func() { exp.RunFig1(ctx, os.Stdout) }},
		{"fig2", func() { exp.RunFig2(ctx, os.Stdout) }},
		{"fig4", func() { exp.RunFig4(ctx, os.Stdout) }},
		{"fig5", func() { exp.RunFig5(ctx, os.Stdout) }},
		{"table1", func() { exp.RunTable1(ctx, os.Stdout) }},
		{"table2", func() { exp.RunTable2(ctx, os.Stdout) }},
		{"fig8", func() { exp.RunFig8(ctx, os.Stdout) }},
		{"table3", func() { exp.RunTable3(ctx, os.Stdout) }},
		{"table4", func() { exp.RunTable4(ctx, os.Stdout) }},
		{"table5", func() { exp.RunTable5(ctx, os.Stdout) }},
		{"fig9", func() { exp.RunFig9(ctx, os.Stdout) }},
		{"table6", func() { exp.RunTable6(ctx, os.Stdout) }},
		{"table7", func() { exp.RunTable7(ctx, os.Stdout) }},
		{"ablation", func() { exp.RunAblationBands(ctx, os.Stdout) }},
		{"query", bench(runQueryBench)},
		{"dispatch", bench(runDispatchBench)},
		{"backend", bench(runBackendBench)},
		{"fleet-recovery", bench(runFleetRecoveryBench)},
		{"restore", bench(runRestoreBench)},
		{"overload", bench(runOverloadBench)},
		{"obs", bench(runObsBench)},
	}

	want := map[string]bool{}
	all := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	ran := 0
	for _, r := range runners {
		if !all && !want[r.id] {
			continue
		}
		start := time.Now()
		r.run()
		fmt.Printf("[%s completed in %s]\n", r.id, time.Since(start).Round(time.Second))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *expFlag)
		os.Exit(2)
	}
}

// writeJSON writes one experiment's result document as BENCH_<name>.json
// under dir (created if missing) and notes the path on w. Experiments call
// it before evaluating their gates, so a miss still leaves the numbers on
// disk.
func writeJSON(dir, name string, doc any, w io.Writer) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  wrote %s\n", path)
	return nil
}
