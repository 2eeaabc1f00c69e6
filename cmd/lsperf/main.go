// Command lsperf is the repository's benchmark: it runs one workload (or
// all of them) against freshly built lsserved and lsrouter processes,
// checks the outputs, and prints every metric as
//
//	<workload> <metric> <value> <unit>
//
// followed by one JSON line {"correct", "attempted", "failed", "metrics"}.
// The workloads, the metrics and their regression bounds are listed in
// BENCHMARK.json; internal/bench/e2e documents them.
//
// Usage, from the repository root:
//
//	bash cmd/lsperf/run.sh -workload all -seed 1 -json out.json
//	bash cmd/lsperf/run.sh -workload serve-sales -seed 1 -trace 1 -spans spans.jsonl
//	bash cmd/lsperf/run.sh -compare a1.json a2.json vs b1.json b2.json
//
// Comparing untraced runs (side A) with traced runs of the same workloads
// (side B) also prints each workload's trace.overhead_pct.
//
// run.sh builds lsperf, lsserved and lsrouter into .bench_build and runs
// lsperf with -bin-dir and -work-dir pointing there. Without -bin-dir,
// lsperf builds the two servers itself into its work directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"

	"lucidscript/internal/bench/e2e"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: all, or one of "+fmt.Sprint(e2e.Workloads))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs, job order and arrival times")
		seconds  = flag.Int("seconds", 15, fmt.Sprintf("length of the measured window in seconds, at least %d", e2e.MinSeconds))
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		spans    = flag.String("spans", "", "with -trace 1, write the spans and the per-job timeline here as JSON lines")
		jsonOut  = flag.String("json", "", "write the results here as JSON (the input of -compare)")
		binDir   = flag.String("bin-dir", "", "directory holding prebuilt lsserved and lsrouter (default: build them)")
		workDir  = flag.String("work-dir", "", "directory for generated inputs and server state (default: a temporary directory)")
		compare  = flag.Bool("compare", false, "compare result files against the bounds in the repository's BENCHMARK.json: lsperf -compare A.json... vs B.json...")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *workload == "":
		flag.Usage()
		os.Exit(2)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	default:
		err = runWorkloads(ctx, *workload, e2e.Config{
			Seed: *seed, Seconds: *seconds, Trace: *trace == 1, TracePath: *spans,
			BinDir: *binDir, WorkDir: *workDir, Log: os.Stderr,
		}, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsperf:", err)
		stop()
		os.Exit(1)
	}
}

// errInvalid marks a run that completed but does not count.
var errInvalid = errors.New("the run is invalid")

// runWorkloads runs one workload in this process, or every workload each
// in its own child lsperf so that memory and heap are per workload.
func runWorkloads(ctx context.Context, workload string, cfg e2e.Config, jsonOut string) error {
	if cfg.WorkDir == "" {
		dir, err := os.MkdirTemp("", "lsperf-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.WorkDir = dir
	}
	if cfg.BinDir == "" {
		root, err := e2e.FindRepoRoot(".")
		if err != nil {
			return err
		}
		cfg.BinDir = filepath.Join(cfg.WorkDir, "bin")
		if err := e2e.BuildServers(ctx, root, cfg.BinDir); err != nil {
			return err
		}
	}
	var results []*e2e.Result
	if workload == "all" {
		for _, w := range e2e.Workloads {
			res, err := runChild(ctx, w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			results = append(results, res)
		}
	} else {
		cfg.Workload = workload
		res, err := e2e.Run(ctx, cfg)
		if err != nil {
			return err
		}
		results = append(results, res)
		printMetrics(os.Stdout, res)
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(e2e.RunFile{Results: results}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	printResultLine(os.Stdout, results)
	for _, res := range results {
		if res.Invalid != "" {
			return fmt.Errorf("%w: %s: %s", errInvalid, res.Workload, res.Invalid)
		}
	}
	return nil
}

// runChild runs one workload in a child lsperf, passing its metric lines
// through and reading its results back from a JSON file. The child exits 0
// after a valid run and 1 after an invalid one, writing the file in both
// cases; any other ending is an error, whatever file the work directory
// holds.
func runChild(ctx context.Context, workload string, cfg e2e.Config) (*e2e.Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The work directory outlives an invocation: a file left by an earlier
	// one must not be read as this child's result.
	out := filepath.Join(cfg.WorkDir, workload+".json")
	if err := os.Remove(out); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	trace := 0
	if cfg.Trace {
		trace = 1
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(cfg.Seed, 10), "-seconds", strconv.Itoa(cfg.Seconds),
		"-trace", strconv.Itoa(trace), "-bin-dir", cfg.BinDir, "-work-dir", cfg.WorkDir, "-json", out,
	}
	if cfg.TracePath != "" {
		args = append(args, "-spans", cfg.TracePath+"."+workload)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Pass every line through but the child's own result line, which
	// this process replaces with one covering all workloads.
	sc := bufio.NewScanner(stdout)
	var held string
	have := false
	for sc.Scan() {
		if have {
			fmt.Println(held)
		}
		held, have = sc.Text(), true
	}
	werr := cmd.Wait()
	var exit *exec.ExitError
	if werr != nil && !(errors.As(werr, &exit) && exit.ExitCode() == 1) {
		return nil, werr
	}
	rf, err := e2e.LoadRunFile(out)
	if err != nil {
		return nil, errors.Join(werr, err)
	}
	if len(rf.Results) != 1 {
		return nil, fmt.Errorf("child wrote %d results, want 1", len(rf.Results))
	}
	res := rf.Results[0]
	if (werr != nil) != (res.Invalid != "") {
		return nil, fmt.Errorf("child exited with %v but reported invalid %q", werr, res.Invalid)
	}
	return res, nil
}

// printMetrics prints one line per metric, in the order the metric lists
// give them.
func printMetrics(w io.Writer, res *e2e.Result) {
	list := append(append([]e2e.Metric(nil), e2e.EndToEnd...), e2e.Latencies...)
	if res.Trace {
		list = append(append([]e2e.Metric(nil), e2e.Layers...), e2e.Details[res.Workload]...)
	}
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok {
			v, ok = res.Detail[m.Name]
		}
		if ok {
			fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, m.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		}
	}
	if res.Trace {
		fmt.Fprintf(os.Stderr, "lsperf: %s: per-layer time (ms per job):\n", res.Workload)
		for _, layer := range sortedKeys(res.LayerMS) {
			fmt.Fprintf(os.Stderr, "  %-18s %10.3f\n", layer, res.LayerMS[layer])
		}
	}
	fmt.Fprintf(os.Stderr, "lsperf: %s: output_digest %s\n", res.Workload, res.OutputDigest)
}

// printResultLine prints the closing JSON line. For several workloads the
// counts are summed and each metric is keyed workload/metric.
func printResultLine(w io.Writer, results []*e2e.Result) {
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]e2e.Value `json:"metrics"`
	}{Correct: true, Metrics: map[string]e2e.Value{}}
	for _, res := range results {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, v := range res.Metrics {
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			line.Metrics[name] = v
		}
	}
	b, _ := json.Marshal(line) // plain floats, strings and maps always marshal
	fmt.Fprintln(w, string(b))
}

// runCompare loads the two sides' result files, split at the "vs"
// argument, and prints the comparison table.
func runCompare(args []string) error {
	var a, b []*e2e.RunFile
	side := &a
	for _, arg := range args {
		if arg == "vs" {
			if side == &b {
				return errors.New("-compare: more than one \"vs\"")
			}
			side = &b
			continue
		}
		rf, err := e2e.LoadRunFile(arg)
		if err != nil {
			return err
		}
		*side = append(*side, rf)
	}
	if len(a) == 0 || len(b) == 0 {
		return errors.New("usage: lsperf -compare A.json... vs B.json...")
	}
	root, err := e2e.FindRepoRoot(".")
	if err != nil {
		return err
	}
	bench, err := e2e.LoadBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	rows, err := e2e.Compare(a, b, bench)
	if err != nil {
		return err
	}
	fmt.Print(e2e.RenderComparisons(rows))
	// Untraced runs against traced ones also give the cost of tracing.
	overhead := e2e.TraceOverhead(a, b)
	for _, w := range e2e.Workloads {
		if pct, ok := overhead[w]; ok {
			fmt.Printf("%s trace.overhead_pct %s %%\n", w, strconv.FormatFloat(pct, 'g', 4, 64))
		}
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
