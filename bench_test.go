package lucidscript

// Benchmarks covering every table and figure of the paper's evaluation
// (via the drivers in internal/bench) plus micro-benchmarks of the core
// components. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN / BenchmarkFigN regenerates the corresponding
// artifact at a reduced scale; `go run ./cmd/lsbench -exp all` produces the
// full-size versions recorded in EXPERIMENTS.md.

import (
	"strings"
	"testing"

	"lucidscript/internal/bench"
	"lucidscript/internal/core"
	"lucidscript/internal/corpusgen"
	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/interp"
	"lucidscript/internal/script"
)

// benchOpts is the reduced experiment scale used inside benchmarks.
func benchOpts() bench.Options {
	return bench.Options{
		Seed:              1,
		RowScale:          0.01,
		MinRows:           240,
		ScriptsPerDataset: 1,
		SeqLength:         6,
		Datasets:          []string{"Medical", "NLP"},
	}
}

func runExperiment(b *testing.B, id string, opts bench.Options) {
	b.Helper()
	e, err := bench.Lookup(bench.Experiments(), id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Parameterization(b *testing.B) { runExperiment(b, "table2", benchOpts()) }

func BenchmarkTable3CorpusStats(b *testing.B) { runExperiment(b, "table3", benchOpts()) }

func BenchmarkTable4CaseStudy(b *testing.B) { runExperiment(b, "table4", benchOpts()) }

func BenchmarkTable5Improvement(b *testing.B) { runExperiment(b, "table5", benchOpts()) }

func BenchmarkFig3UserStudy(b *testing.B) { runExperiment(b, "fig3", benchOpts()) }

func BenchmarkFig4Distribution(b *testing.B) { runExperiment(b, "fig4", benchOpts()) }

func BenchmarkFig5IntentSweep(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"Medical"}
	runExperiment(b, "fig5", opts)
}

func BenchmarkFig6Ablation(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"Medical"}
	runExperiment(b, "fig6", opts)
}

func BenchmarkFig7Runtime(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"Medical"}
	runExperiment(b, "fig7", opts)
}

func BenchmarkFig9LeakageDetection(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"Medical"}
	opts.ScriptsPerDataset = 2
	runExperiment(b, "fig9", opts)
}

// ---- component micro-benchmarks ----

func medicalFixture(b *testing.B) (*corpusgen.Generated, []*script.Script) {
	b.Helper()
	c, err := corpusgen.Get("Medical")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := c.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	return gen, gen.ScriptsOnly()
}

func BenchmarkParseScript(b *testing.B) {
	src := `import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df["Scaled"] = (df["Glucose"] - df["Glucose"].min()) / (df["Glucose"].max() - df["Glucose"].min())
df = pd.get_dummies(df)
y = df["Outcome"]
X = df.drop("Outcome", axis=1)
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := script.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildDAG(b *testing.B) {
	_, scripts := medicalFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dag.Build(scripts[i%len(scripts)])
	}
}

func BenchmarkBuildVocab(b *testing.B) {
	_, scripts := medicalFixture(b)
	graphs := make([]*dag.Graph, len(scripts))
	for i, s := range scripts {
		graphs[i] = dag.Build(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entropy.BuildVocab(graphs)
	}
}

func BenchmarkRelativeEntropy(b *testing.B) {
	_, scripts := medicalFixture(b)
	graphs := make([]*dag.Graph, len(scripts))
	for i, s := range scripts {
		graphs[i] = dag.Build(s)
	}
	v := entropy.BuildVocab(graphs)
	g := graphs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.RE(g)
	}
}

func BenchmarkInterpreterRun(b *testing.B) {
	gen, scripts := medicalFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(scripts[i%len(scripts)], gen.Sources, interp.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStandardizeEndToEnd(b *testing.B) {
	gen, scripts := medicalFixture(b)
	sys, err := NewSystem(scripts, gen.Sources, Options{SeqLength: 6, Tau: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	input, err := ParseScript(`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = pd.get_dummies(df)
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Standardize(input); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	gen, _ := medicalFixture(b)
	csv := gen.Sources["diabetes.csv"].CSVString()
	b.SetBytes(int64(len(csv)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(strings.NewReader(csv)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	c, err := corpusgen.Get("Medical")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Generate(corpusgen.GenOptions{Seed: int64(i + 1), RowScale: 0.3}); err != nil {
			b.Fatal(err)
		}
	}
}

// batchBenchJobs builds the shared fixture for the batch benchmarks: a
// Titanic corpus plus a set of jobs sampled from it.
func batchBenchJobs(b *testing.B) (*corpusgen.Generated, []*Script) {
	b.Helper()
	c, err := corpusgen.Get("Titanic")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := c.Generate(corpusgen.GenOptions{Seed: 3, MinRows: 1200, NumScripts: 12})
	if err != nil {
		b.Fatal(err)
	}
	return gen, gen.Sample(6, 17)
}

// BenchmarkStandardizeBatch standardizes N jobs through one System: the
// corpus is curated once and every job shares the execution-prefix cache.
// Compare against BenchmarkStandardizeSequentialBaseline, which is what the
// same N jobs cost as independent single-shot users (one NewSystem each);
// cmd/lsbench -exp batch records the same comparison in BENCH_batch.json.
func BenchmarkStandardizeBatch(b *testing.B) {
	gen, jobs := batchBenchJobs(b)
	corpus := gen.ScriptsOnly()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := core.CurateCalls()
		sys, err := NewSystem(corpus, gen.Sources, Options{SeqLength: 6, Tau: 0.5, BatchWorkers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.StandardizeBatch(jobs); err != nil {
			b.Fatal(err)
		}
		if got := core.CurateCalls() - before; got != 1 {
			b.Fatalf("batch of %d jobs curated %d times, want exactly once", len(jobs), got)
		}
	}
}

// BenchmarkStandardizeSequentialBaseline is the no-batching counterpart:
// every job builds its own System (re-curating the corpus) and runs alone.
func BenchmarkStandardizeSequentialBaseline(b *testing.B) {
	gen, jobs := batchBenchJobs(b)
	corpus := gen.ScriptsOnly()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, job := range jobs {
			sys, err := NewSystem(corpus, gen.Sources, Options{SeqLength: 6, Tau: 0.5})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Standardize(job); err != nil {
				b.Fatal(err)
			}
		}
	}
}
