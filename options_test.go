package lucidscript

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestDefaultOptionsAreResolved(t *testing.T) {
	def := DefaultOptions()
	if got := fmt.Sprintf("%+v", def.resolved()); got != fmt.Sprintf("%+v", def) {
		t.Fatalf("DefaultOptions not a fixed point of resolved():\n%s\nvs\n%+v", got, def)
	}
	if got := fmt.Sprintf("%+v", (Options{}).resolved()); got != fmt.Sprintf("%+v", def) {
		t.Fatalf("zero Options resolve to %s, want %+v", got, def)
	}
	if err := def.Validate(); err != nil {
		t.Fatalf("DefaultOptions invalid: %v", err)
	}
}

func TestTauResolution(t *testing.T) {
	cases := []struct {
		opts Options
		want float64
	}{
		{Options{}, 0.9},
		{Options{Measure: IntentRowJaccard}, 0.9},
		{Options{Measure: IntentModel, TargetColumn: "y"}, 1},
		{Options{Measure: IntentEMD}, 0.05},
		{Options{Tau: TauZero}, 0},
		{Options{Tau: 0.42}, 0.42},
	}
	for _, c := range cases {
		if got := c.opts.resolved().Tau; got != c.want {
			t.Errorf("resolved Tau of %+v = %v, want %v", c.opts, got, c.want)
		}
	}
	// A negative MaxRows disables sampling (core treats 0 as "no cap").
	if got := (Options{MaxRows: -1}).resolved().MaxRows; got != 0 {
		t.Errorf("MaxRows -1 resolved to %d, want 0", got)
	}
	if got := (Options{}).resolved().MaxRows; got != 50000 {
		t.Errorf("MaxRows 0 resolved to %d, want 50000", got)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"unknown measure", Options{Measure: "bogus"}, ErrUnknownMeasure},
		{"model without target", Options{Measure: IntentModel}, ErrMissingTargetColumn},
		{"fairness without target", Options{Measure: IntentFairness}, ErrMissingTargetColumn},
		{"fairness without protected", Options{Measure: IntentFairness, TargetColumn: "y"}, ErrMissingProtectedColumn},
		{"negative tau", Options{Tau: -0.5}, ErrInvalidThreshold},
		{"jaccard tau above one", Options{Tau: 1.5}, ErrInvalidThreshold},
		{"negative beam", Options{BeamSize: -1}, ErrInvalidThreshold},
		{"negative timeout", Options{Timeout: -time.Second}, ErrInvalidThreshold},
		{"zero value ok", Options{}, nil},
		{"explicit zero tau ok", Options{Tau: TauZero}, nil},
		{"model tau above one ok", Options{Measure: IntentModel, TargetColumn: "y", Tau: 10}, nil},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestNewSystemTypedErrors(t *testing.T) {
	data, err := ReadCSV(strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseScript(corpusScript)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]*Frame{"diabetes.csv": data}
	if _, err := NewSystem(nil, sources, Options{}); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("empty corpus: %v", err)
	}
	if _, err := NewSystem([]*Script{s}, sources, Options{Measure: "bogus"}); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("unknown measure: %v", err)
	}
	if _, err := NewSystem([]*Script{s}, sources, Options{Measure: IntentModel}); !errors.Is(err, ErrMissingTargetColumn) {
		t.Fatalf("missing target: %v", err)
	}
	if _, err := NewSystem([]*Script{s}, sources, Options{Tau: 2}); !errors.Is(err, ErrInvalidThreshold) {
		t.Fatalf("bad tau: %v", err)
	}
}

func facadeInput(t *testing.T) *Script {
	t.Helper()
	in, err := ParseScript(`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = pd.get_dummies(df)
`)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestStandardizeContextPreCanceledFacade(t *testing.T) {
	sys := newTestSystem(t, Options{SeqLength: 6})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sys.StandardizeContext(ctx, facadeInput(t))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v should also match context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("pre-canceled search returned %+v", res)
	}
}

// largeTestCSV synthesizes a dataset big enough that the interpreter works
// for tens of milliseconds per candidate, so a short deadline reliably
// fires mid-search.
func largeTestCSV(rows int) string {
	var b strings.Builder
	b.WriteString("Glucose,SkinThickness,Age,Outcome\n")
	for i := 0; i < rows; i++ {
		skin := fmt.Sprintf("%d", 15+i%80)
		if i%7 == 0 {
			skin = ""
		}
		fmt.Fprintf(&b, "%d,%s,%d,%d\n", 78+i%120, skin, 21+i%40, i%2)
	}
	return b.String()
}

func TestOptionsTimeoutPartialResult(t *testing.T) {
	data, err := ReadCSV(strings.NewReader(largeTestCSV(20000)))
	if err != nil {
		t.Fatal(err)
	}
	var corpus []*Script
	for i := 0; i < 5; i++ {
		s, err := ParseScript(corpusScript)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, s)
	}
	sys, err := NewSystem(corpus, map[string]*Frame{"diabetes.csv": data},
		Options{Timeout: time.Millisecond, MaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	input := facadeInput(t)
	start := time.Now()
	res, err := sys.Standardize(input)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v should also match context.DeadlineExceeded", err)
	}
	// Promptness: the 1ms deadline must abort the search long before it
	// would finish naturally. The bound is generous for CI noise.
	if elapsed > 2*time.Second {
		t.Fatalf("canceled search took %s", elapsed)
	}
	if res != nil {
		// A partial result falls back to the input script.
		if res.Script.Source() != input.Source() {
			t.Fatalf("partial result is not the input:\n%s", res.Script.Source())
		}
		if res.ImprovementPct != 0 {
			t.Fatalf("partial fallback claims improvement %.2f%%", res.ImprovementPct)
		}
	}
}

func TestFacadeTracerAndMetrics(t *testing.T) {
	tr := NewCollectTracer()
	m := NewMetrics()
	sys := newTestSystem(t, Options{SeqLength: 6, Tracer: tr, Metrics: m})
	res, err := sys.Standardize(facadeInput(t))
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("tracer saw no events")
	}
	if events[0].Kind != TraceCurateDone {
		t.Fatalf("first event = %s", events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != TraceSearchDone {
		t.Fatalf("last event = %s", last.Kind)
	}
	if res.Timings.Total <= 0 {
		t.Fatal("Result.Timings.Total not populated")
	}
	if last.Dur != res.Timings.Total {
		t.Fatalf("search_done dur %s != Timings.Total %s", last.Dur, res.Timings.Total)
	}
	if got := m.Value(MetricCacheHits); got != res.CacheStats.Hits {
		t.Fatalf("cache hits metric %d != result %d", got, res.CacheStats.Hits)
	}
	if got := m.Value(MetricStatementsExecuted); got != res.CacheStats.StmtsExecuted {
		t.Fatalf("statements metric %d != result %d", got, res.CacheStats.StmtsExecuted)
	}
	var prom strings.Builder
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "lucidscript_searches_total 1") {
		t.Fatalf("prometheus dump missing search counter:\n%s", prom.String())
	}
}

func TestParetoFrontierContextCanceledFacade(t *testing.T) {
	sys := newTestSystem(t, Options{SeqLength: 6})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := sys.ParetoFrontierContext(ctx, facadeInput(t), []float64{0.5, 0.9})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if pts != nil {
		t.Fatalf("canceled frontier returned points: %+v", pts)
	}
}
