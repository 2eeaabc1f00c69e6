package lucidscript

// End-to-end CLI tests: the three binaries are built once into a temp dir
// and exercised against small fixtures, verifying the full user-facing
// workflow (run a script, standardize a script, regenerate an experiment).

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func buildCLIs(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "lucidscript-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"lsrun", "lsstd", "lsbench"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			cmd.Dir = "."
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building CLIs: %v", buildErr)
	}
	return binDir
}

const cliCSV = `Glucose,SkinThickness,Age,Outcome
148,35,50,1
85,29,31,0
183,,32,1
89,23,21,0
137,35,33,1
116,25,30,0
78,32,26,1
115,,29,0
`

const cliScript = `import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
`

const cliCorpusScript = `import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
y = df["Outcome"]
`

func writeFixtures(t *testing.T) (dir, csv, scriptPath, corpusDir string) {
	t.Helper()
	dir = t.TempDir()
	csv = filepath.Join(dir, "diabetes.csv")
	if err := os.WriteFile(csv, []byte(cliCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	scriptPath = filepath.Join(dir, "prep.ls")
	if err := os.WriteFile(scriptPath, []byte(cliScript), 0o644); err != nil {
		t.Fatal(err)
	}
	corpusDir = filepath.Join(dir, "corpus")
	if err := os.Mkdir(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := filepath.Join(corpusDir, "s"+string(rune('a'+i))+".py")
		if err := os.WriteFile(name, []byte(cliCorpusScript), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, csv, scriptPath, corpusDir
}

func TestLSRunCLI(t *testing.T) {
	bin := buildCLIs(t)
	_, csv, scriptPath, _ := writeFixtures(t)
	out, err := exec.Command(filepath.Join(bin, "lsrun"),
		"-script", scriptPath, "-data", csv).Output()
	if err != nil {
		t.Fatalf("lsrun: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 9 { // header + 8 rows
		t.Fatalf("lsrun output lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Glucose") {
		t.Fatalf("missing header: %q", lines[0])
	}
	// Median fill applied: no empty SkinThickness cells remain.
	for _, l := range lines[1:] {
		if strings.Contains(l, ",,") {
			t.Fatalf("null survived median fill: %q", l)
		}
	}
}

func TestLSRunCLIHead(t *testing.T) {
	bin := buildCLIs(t)
	_, csv, scriptPath, _ := writeFixtures(t)
	out, err := exec.Command(filepath.Join(bin, "lsrun"),
		"-script", scriptPath, "-data", csv, "-head", "2").Output()
	if err != nil {
		t.Fatalf("lsrun: %v", err)
	}
	if n := len(strings.Split(strings.TrimSpace(string(out)), "\n")); n != 3 {
		t.Fatalf("head output lines = %d", n)
	}
}

func TestLSRunCLIErrors(t *testing.T) {
	bin := buildCLIs(t)
	if err := exec.Command(filepath.Join(bin, "lsrun")).Run(); err == nil {
		t.Fatal("missing flags should fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ls")
	_ = os.WriteFile(bad, []byte("df = ???"), 0o644)
	csvPath := filepath.Join(dir, "d.csv")
	_ = os.WriteFile(csvPath, []byte("a\n1\n"), 0o644)
	if err := exec.Command(filepath.Join(bin, "lsrun"), "-script", bad, "-data", csvPath).Run(); err == nil {
		t.Fatal("unparseable script should fail")
	}
}

func TestLSStdCLI(t *testing.T) {
	bin := buildCLIs(t)
	_, csv, scriptPath, corpusDir := writeFixtures(t)
	cmd := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", corpusDir, "-data", csv,
		"-measure", "jaccard", "-tau", "0.5", "-seq", "6")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("lsstd: %v\n%s", err, stderr.String())
	}
	src := string(out)
	if !strings.Contains(src, "read_csv") {
		t.Fatalf("output script missing load:\n%s", src)
	}
	if !strings.Contains(stderr.String(), "improvement") {
		t.Fatalf("summary missing:\n%s", stderr.String())
	}
	// The corpus-standard outlier filter or target split should be added.
	if !strings.Contains(src, "SkinThickness") && !strings.Contains(src, `y = df["Outcome"]`) {
		t.Fatalf("no corpus step adopted:\n%s", src)
	}
}

// TestLSStdCLIMaxSteps arms the resource governor from the command line
// with a statement budget the input script itself cannot fit in, and
// asserts the typed failure surfaces through the CLI.
func TestLSStdCLIMaxSteps(t *testing.T) {
	bin := buildCLIs(t)
	_, csv, scriptPath, corpusDir := writeFixtures(t)
	cmd := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", corpusDir, "-data", csv,
		"-max-steps", "2")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("lsstd succeeded with -max-steps 2 on a 3-statement script\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "resource budget exhausted") {
		t.Fatalf("stderr does not name the budget trip:\n%s", stderr.String())
	}
}

// TestLSStdCLIMaxCells runs a governed standardization whose budgets are
// ample: the search must behave exactly as ungoverned.
func TestLSStdCLIMaxCells(t *testing.T) {
	bin := buildCLIs(t)
	_, csv, scriptPath, corpusDir := writeFixtures(t)
	cmd := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", corpusDir, "-data", csv,
		"-tau", "0.5", "-seq", "6", "-max-cells", "1000000")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("lsstd: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(string(out), "read_csv") {
		t.Fatalf("output script missing load:\n%s", out)
	}
	if strings.Contains(stderr.String(), "degraded:") {
		t.Fatalf("ample budgets reported degradation:\n%s", stderr.String())
	}
}

func TestLSStdCLIModelMeasure(t *testing.T) {
	bin := buildCLIs(t)
	_, csv, scriptPath, corpusDir := writeFixtures(t)
	cmd := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", corpusDir, "-data", csv,
		"-measure", "model", "-target", "Outcome", "-tau", "10", "-seq", "4")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("lsstd model measure: %v\n%s", err, out)
	}
}

func TestLSStdCLIErrors(t *testing.T) {
	bin := buildCLIs(t)
	if err := exec.Command(filepath.Join(bin, "lsstd")).Run(); err == nil {
		t.Fatal("missing flags should fail")
	}
	_, csv, scriptPath, _ := writeFixtures(t)
	empty := t.TempDir()
	if err := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", empty, "-data", csv).Run(); err == nil {
		t.Fatal("empty corpus dir should fail")
	}
}

func TestLSBenchCLIListAndTable2(t *testing.T) {
	bin := buildCLIs(t)
	out, err := exec.Command(filepath.Join(bin, "lsbench"), "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "table5") || !strings.Contains(string(out), "fig9") {
		t.Fatalf("list output:\n%s", out)
	}
	out2, err := exec.Command(filepath.Join(bin, "lsbench"), "-exp", "table2", "-q").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out2), "Table 2") {
		t.Fatalf("table2 output:\n%s", out2)
	}
	if err := exec.Command(filepath.Join(bin, "lsbench"), "-exp", "nope").Run(); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestLSStdCLIRegistryDir(t *testing.T) {
	bin := buildCLIs(t)
	dir, csv, scriptPath, corpusDir := writeFixtures(t)
	lsstd := func(args ...string) string {
		t.Helper()
		args = append([]string{"-script", scriptPath, "-data", csv, "-tau", "0.5", "-seq", "4"}, args...)
		out, err := exec.Command(filepath.Join(bin, "lsstd"), args...).Output()
		if err != nil {
			t.Fatalf("lsstd %v: %v", args, err)
		}
		return string(out)
	}
	plain := lsstd("-corpus", corpusDir)
	if !strings.Contains(plain, "read_csv") {
		t.Fatalf("plain output:\n%s", plain)
	}
	// Curate once into the registry, then reuse it without the corpus.
	reg := filepath.Join(dir, "registry")
	if curated := lsstd("-corpus", corpusDir, "-registry-dir", reg); curated != plain {
		t.Fatalf("curating run differs from plain -corpus:\n%s\nvs\n%s", curated, plain)
	}
	if warm := lsstd("-registry-dir", reg); warm != plain {
		t.Fatalf("warm -registry-dir run differs from plain -corpus:\n%s\nvs\n%s", warm, plain)
	}
}

func TestLSStdCLITraceAndMetrics(t *testing.T) {
	bin := buildCLIs(t)
	_, csv, scriptPath, corpusDir := writeFixtures(t)
	cmd := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", corpusDir, "-data", csv,
		"-tau", "0.5", "-seq", "6", "-trace", "-metrics-dump")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("lsstd -trace: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(string(out), "read_csv") {
		t.Fatalf("output script missing:\n%s", out)
	}
	progress := stderr.String()
	for _, want := range []string{"curate_done", "search_start", "step_done", "verify_done", "search_done"} {
		if !strings.Contains(progress, want) {
			t.Fatalf("trace stream missing %q:\n%s", want, progress)
		}
	}
	for _, want := range []string{
		"lucidscript_searches_total 1",
		"lucidscript_statements_executed_total",
		"# TYPE lucidscript_exec_cache_hits_total counter",
	} {
		if !strings.Contains(progress, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, progress)
		}
	}
}

func TestLSStdCLITimeout(t *testing.T) {
	bin := buildCLIs(t)
	_, csv, scriptPath, corpusDir := writeFixtures(t)
	// A 1ns budget expires before the search starts; the CLI must still
	// exit 0 and print the best (unchanged) script with a note on stderr.
	cmd := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", corpusDir, "-data", csv,
		"-tau", "0.5", "-seq", "6", "-timeout", "1ns")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("lsstd -timeout: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("no interruption note:\n%s", stderr.String())
	}
	// The timed-out run passes the input through: its distinctive median
	// fill (absent from every corpus script) must survive.
	if !strings.Contains(string(out), "median") {
		t.Fatalf("timed-out run should print the input unchanged:\n%s", out)
	}
	// An invalid (negative) timeout is rejected up front.
	if err := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", corpusDir, "-data", csv,
		"-timeout", "-5s").Run(); err == nil {
		t.Fatal("negative timeout should fail")
	}
}

func TestLSStdCLIBatchJobs(t *testing.T) {
	bin := buildCLIs(t)
	dir, csv, scriptPath, corpusDir := writeFixtures(t)
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.Mkdir(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	second := `import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df[df["Age"] < 45]
`
	if err := os.WriteFile(filepath.Join(jobsDir, "a.ls"), []byte(cliScript), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobsDir, "b.ls"), []byte(second), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bin, "lsstd"),
		"-jobs", filepath.Join(jobsDir, "*.ls"), "-corpus", corpusDir, "-data", csv,
		"-tau", "0.5", "-seq", "6", "-batch-workers", "2")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("lsstd -jobs: %v\n%s", err, stderr.String())
	}
	src := string(out)
	// Each job's output appears in glob order under its own header.
	ai := strings.Index(src, "# === a.ls ===")
	bi := strings.Index(src, "# === b.ls ===")
	if ai < 0 || bi < 0 || bi < ai {
		t.Fatalf("missing or misordered job headers:\n%s", src)
	}
	if strings.Count(src, "read_csv") != 2 {
		t.Fatalf("want both standardized scripts in output:\n%s", src)
	}
	progress := stderr.String()
	for _, want := range []string{"a.ls: RE", "b.ls: RE", "batch: 2 jobs"} {
		if !strings.Contains(progress, want) {
			t.Fatalf("batch summary missing %q:\n%s", want, progress)
		}
	}
	// The batch output for a.ls must match the single-shot run byte for byte.
	single, err := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", corpusDir, "-data", csv,
		"-tau", "0.5", "-seq", "6").Output()
	if err != nil {
		t.Fatalf("single-shot lsstd: %v", err)
	}
	if got := src[ai+len("# === a.ls ===\n") : bi]; got != string(single) {
		t.Fatalf("batch output diverges from single-shot:\nbatch:\n%ssingle:\n%s", got, single)
	}
	// A glob with no matches fails, as does combining -lint with -jobs.
	if err := exec.Command(filepath.Join(bin, "lsstd"),
		"-jobs", filepath.Join(jobsDir, "*.nope"), "-corpus", corpusDir, "-data", csv).Run(); err == nil {
		t.Fatal("empty glob should fail")
	}
	if err := exec.Command(filepath.Join(bin, "lsstd"),
		"-jobs", filepath.Join(jobsDir, "*.ls"), "-corpus", corpusDir, "-data", csv,
		"-lint").Run(); err == nil {
		t.Fatal("-lint with -jobs should fail")
	}
}

func TestLSBenchCLIBatchJSON(t *testing.T) {
	bin := buildCLIs(t)
	jsonPath := filepath.Join(t.TempDir(), "BENCH_batch.json")
	out, err := exec.Command(filepath.Join(bin, "lsbench"),
		"-exp", "batch", "-q", "-datasets", "Medical", "-scripts", "2",
		"-rowscale", "0.01", "-json", jsonPath).Output()
	if err != nil {
		t.Fatalf("lsbench -exp batch: %v", err)
	}
	if !strings.Contains(string(out), "Batch standardization") {
		t.Fatalf("batch table missing:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON record file: %v", err)
	}
	var records []struct {
		Experiment string             `json:"experiment"`
		Key        string             `json:"key"`
		Metrics    map[string]float64 `json:"metrics"`
		Details    map[string]float64 `json:"details"`
		Identical  bool               `json:"identical"`
	}
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("unmarshal %s: %v", jsonPath, err)
	}
	if len(records) != 1 {
		t.Fatalf("records = %d, want 1", len(records))
	}
	rec := records[0]
	if rec.Experiment != "batch" || rec.Key != "Medical" || rec.Details["jobs"] != 2 {
		t.Fatalf("record fields: %+v", rec)
	}
	if !rec.Identical {
		t.Fatalf("batch output not identical to sequential: %+v", rec)
	}
	for _, key := range []string{"sequential_ms", "batch_ms"} {
		if _, ok := rec.Metrics[key]; !ok {
			t.Fatalf("record missing metric %q: %+v", key, rec)
		}
	}
	for _, key := range []string{"workers", "speedup", "curate_ms", "cache_hits"} {
		if _, ok := rec.Details[key]; !ok {
			t.Fatalf("record missing detail %q: %+v", key, rec)
		}
	}
}

func TestLSStdCLILint(t *testing.T) {
	bin := buildCLIs(t)
	_, csv, scriptPath, corpusDir := writeFixtures(t)
	out, err := exec.Command(filepath.Join(bin, "lsstd"),
		"-script", scriptPath, "-corpus", corpusDir, "-data", csv,
		"-lint", "-lint-freq", "0.3").Output()
	if err != nil {
		t.Fatalf("lsstd -lint: %v", err)
	}
	// The fixture input uses median fill, absent from the corpus.
	if !strings.Contains(string(out), "median") {
		t.Fatalf("lint should flag the median fill:\n%s", out)
	}
}
