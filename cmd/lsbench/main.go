// Command lsbench regenerates the tables and figures of the paper's
// evaluation against the synthetic competitions.
//
// Usage:
//
//	lsbench -exp table5            # one experiment
//	lsbench -exp all               # everything, in paper order
//	lsbench -list                  # list experiments
//	lsbench -exp fig6 -scripts 10 -rowscale 0.05 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lucidscript/internal/bench"
	"lucidscript/internal/bench/serveexp"
	"lucidscript/internal/cliflags"
	"lucidscript/internal/obs"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (e.g. table5, fig9) or 'all'")
		list        = flag.Bool("list", false, "list experiments and exit")
		seed        = flag.Int64("seed", 1, "random seed")
		rowScale    = flag.Float64("rowscale", 0.02, "fraction of each competition's full tuple count")
		minRows     = flag.Int("minrows", 240, "minimum rows per dataset")
		scripts     = flag.Int("scripts", 6, "input scripts per dataset (leave-one-out cap)")
		datasets    = flag.String("datasets", "", "comma-separated dataset subset (default all six)")
		batchWork   = flag.Int("batch-workers", 0, "worker pool size for the batch experiment (0 = GOMAXPROCS)")
		jsonPath    = flag.String("json", "", "also write machine-readable records (batch, serve, route, curate, regress experiments) to this JSON file")
		quiet       = flag.Bool("q", false, "suppress progress output")
		trace       = flag.Bool("trace", false, "stream structured search events to stderr")
		metricsDump = flag.Bool("metrics-dump", false, "print cumulative search counters in Prometheus text format to stderr on exit")
		budgets     = cliflags.RegisterBudgets(flag.CommandLine)
		seq, beam   int
	)
	flag.Func("seq", "override sequence length, not negative (0 = default 16)", cliflags.NonNegative(&seq))
	flag.Func("beam", "override beam size, not negative (0 = default 3)", cliflags.NonNegative(&beam))
	flag.Parse()

	// The serve, route, and regress experiments need the facade, so they
	// live in their own package; regress stays last for -exp all.
	exps := append(bench.Experiments(), serveexp.Experiments()...)
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %-9s %s\n", e.ID, e.Paper, e.Description)
		}
		return
	}

	opts := bench.Options{
		Seed:              *seed,
		RowScale:          *rowScale,
		MinRows:           *minRows,
		ScriptsPerDataset: *scripts,
		SeqLength:         seq,
		BeamSize:          beam,
		BatchWorkers:      *batchWork,
		JSONPath:          *jsonPath,
		Limits:            budgets.Limits(),
	}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *trace {
		opts.Tracer = obs.NewWriterTracer(os.Stderr)
	}
	var metrics *obs.Metrics
	if *metricsDump {
		metrics = obs.NewMetrics()
		opts.Metrics = metrics
	}

	selected := exps
	if *exp != "all" {
		selected = nil
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.Lookup(exps, id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	if *jsonPath != "" {
		checkJSONWritten(exps, selected)
	}
	for _, e := range selected {
		start := time.Now()
		t, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("\n%s\n", t.Render())
		fmt.Printf("[%s completed in %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if metrics != nil {
		if err := metrics.WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "lsbench: metrics dump:", err)
		}
	}
}

// checkJSONWritten exits 2 when -json is set but no selected experiment
// writes records, instead of silently ignoring the flag.
func checkJSONWritten(exps, selected []bench.Experiment) {
	var none, some []string
	for _, e := range selected {
		if e.Records {
			return
		}
		none = append(none, e.ID)
	}
	for _, e := range exps {
		if e.Records {
			some = append(some, e.ID)
		}
	}
	fmt.Fprintf(os.Stderr, "lsbench: -json: %s write no records (only %s do)\n",
		strings.Join(none, ", "), strings.Join(some, ", "))
	os.Exit(2)
}
