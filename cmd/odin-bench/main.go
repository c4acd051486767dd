// Command odin-bench regenerates the paper's tables and figures (§6).
//
// Usage:
//
//	odin-bench [-scale quick|full] [-exp all|fig1|fig2|fig4|fig5|table1|
//	            table2|fig8|table3|table4|table5|fig9|table6|table7|
//	            ablation] [-v]
//
// Experiments share one context, so models trained for an earlier
// experiment are reused by later ones.
//
// The serving system is measured by the repository benchmark (bench/,
// BENCHMARK.json) and its behaviour is pinned by the tests; DESIGN.md names
// the test or ledger metric behind each published number.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"odin/internal/exp"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	expFlag := flag.String("exp", "all", "comma-separated experiment ids or 'all'")
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
