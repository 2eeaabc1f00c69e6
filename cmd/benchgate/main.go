// Command benchgate compares a perf report produced by `lsbench -exp
// regress -json report.json` against the committed BENCH_*.json baselines
// and exits non-zero on regression.
//
// Usage:
//
//	lsbench -exp regress -batch-workers 1 -json report.json
//	benchgate -report report.json
//	benchgate -report report.json -warn 1.5 -fail 2.0 -baselines 'BENCH_*.json'
//
// Report and baselines are both []bench.Record, joined on (experiment,
// key). Wall-clock comparisons across machines are noisy, so the gate is
// two-tier: ratios above -warn are printed but tolerated, ratios above
// -fail (or any non-identical output or broken floor) exit 1. CI runs it
// with generous thresholds; refresh the baselines on the reference machine
// when the code gets legitimately faster or slower.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lucidscript/internal/bench"
)

func main() {
	var (
		report    = flag.String("report", "", "regress report JSON (from lsbench -exp regress -json)")
		baselines = flag.String("baselines", "BENCH_*.json", "glob of committed baseline record files (must match at least one)")
		warn      = flag.Float64("warn", 1.5, "warn when current/baseline wall-clock exceeds this ratio")
		fail      = flag.Float64("fail", 2.0, "fail when current/baseline wall-clock exceeds this ratio")
	)
	flag.Parse()
	if *report == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -report is required")
		flag.Usage()
		os.Exit(2)
	}
	rep, err := bench.LoadRecords(*report)
	if err != nil {
		fatal(err)
	}
	paths, err := filepath.Glob(*baselines)
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("-baselines %q matches no file", *baselines))
	}
	var base []bench.Record
	for _, p := range paths {
		recs, err := bench.LoadRecords(p)
		if err != nil {
			fatal(err)
		}
		base = append(base, recs...)
	}

	findings := bench.Gate(rep, base, bench.GateConfig{WarnRatio: *warn, FailRatio: *fail})
	fmt.Println(bench.GateTable(findings).Render())
	fails, _, line := bench.GateSummary(findings)
	fmt.Println(line)
	if fails > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
