package registry

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lucidscript/internal/core"
	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/frame"
	"lucidscript/internal/intent"
	"lucidscript/internal/script"
)

// testSource renders a deterministic corpus script from a small pool of
// realistic data-prep lines, parameterized so distinct ids yield distinct
// (but overlapping) atom sets — the shape the fold's distributions care
// about.
func testSource(i int) string {
	var b strings.Builder
	b.WriteString("import pandas as pd\n")
	b.WriteString("df = pd.read_csv(\"diabetes.csv\")\n")
	switch i % 4 {
	case 0:
		b.WriteString("df = df.fillna(df.median())\n")
	case 1:
		b.WriteString("df = df.dropna()\n")
	case 2:
		b.WriteString("df[\"Glucose\"] = df[\"Glucose\"].fillna(df[\"Glucose\"].mean())\n")
	case 3:
		b.WriteString("df = df.drop_duplicates()\n")
	}
	if i%3 == 0 {
		fmt.Fprintf(&b, "df = df[df[\"Age\"] < %d]\n", 40+10*(i%5))
	}
	if i%5 == 1 {
		b.WriteString("df = df[df[\"Glucose\"] > 0]\n")
	}
	return b.String()
}

// testScript builds corpus member i with a deterministic weight.
func testScript(i int) Script {
	return Script{ID: fmt.Sprintf("s%04d", i), Source: testSource(i), Weight: 1 + i%3}
}

// mustStateBytes is StateBytes with the error folded into the test.
func mustStateBytes(t *testing.T, r *Registry) []byte {
	t.Helper()
	b, err := r.StateBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oracleCreate curates the given membership from scratch in a throwaway
// directory — the differential tests' ground truth.
func oracleCreate(t *testing.T, scripts []Script) *Registry {
	t.Helper()
	r, err := Create(t.TempDir(), scripts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	scripts := []Script{testScript(0), testScript(1), testScript(2)}
	created, err := Create(dir, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if v := created.Version(); v != 1 {
		t.Fatalf("Create published version %d, want 1", v)
	}
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Version() != 1 || opened.NumScripts() != 3 {
		t.Fatalf("opened version=%d scripts=%d", opened.Version(), opened.NumScripts())
	}
	if len(opened.Diagnostics()) != 0 {
		t.Fatalf("clean open produced diagnostics: %v", opened.Diagnostics())
	}
	same, err := vocabsEqual(created.Vocab(), opened.Vocab())
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("reopened vocabulary differs from the created one")
	}
	// The warm open never touched the scripts section; StateBytes forces the
	// lazy load and must reproduce the created state exactly.
	if !bytes.Equal(mustStateBytes(t, created), mustStateBytes(t, opened)) {
		t.Fatal("warm-opened state differs from created state")
	}
}

func TestCreateRejectsDuplicateIDs(t *testing.T) {
	_, err := Create(t.TempDir(), []Script{testScript(0), testScript(0)})
	if !errors.Is(err, ErrDuplicateScript) {
		t.Fatalf("err = %v, want ErrDuplicateScript", err)
	}
}

// TestReadDirAndParse pins the corpus-directory format: *.ls and *.py
// files only, sorted by name, IDs are file names, sources unparsed; Parse
// then fails on the first unparseable member, naming it.
func TestReadDirAndParse(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"b.py":      testSource(1),
		"a.ls":      testSource(0),
		"notes.txt": "not a script",
		"c.py":      "df = ???\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.py"), 0o755); err != nil {
		t.Fatal(err)
	}
	members, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range members {
		ids = append(ids, m.ID)
	}
	if got := strings.Join(ids, ","); got != "a.ls,b.py,c.py" {
		t.Fatalf("ReadDir ids = %s, want a.ls,b.py,c.py", got)
	}
	if members[0].Source != testSource(0) || members[0].Weight != 0 {
		t.Fatalf("member a.ls = %+v", members[0])
	}
	parsed, err := Parse(members[:2])
	if err != nil || len(parsed) != 2 {
		t.Fatalf("Parse(valid) = %d scripts, %v", len(parsed), err)
	}
	if _, err := Parse(members); !errors.Is(err, ErrBadScript) || !strings.Contains(err.Error(), "c.py") {
		t.Fatalf("Parse(with c.py) err = %v, want ErrBadScript naming c.py", err)
	}
	if _, err := ReadDir(t.TempDir()); err == nil {
		t.Fatal("ReadDir of a directory without scripts succeeded")
	}
}

func TestOpenNoCorpus(t *testing.T) {
	if _, err := Open(t.TempDir()); !errors.Is(err, ErrNoCorpus) {
		t.Fatalf("err = %v, want ErrNoCorpus", err)
	}
}

// writeCorpusDir writes each source to dir/<id> and returns the directory.
func writeCorpusDir(t *testing.T, dir string, files map[string]string) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestOpenOrCreate(t *testing.T) {
	regDir := filepath.Join(t.TempDir(), "reg")
	if _, _, err := OpenOrCreate(regDir, ""); !errors.Is(err, ErrNoCorpus) {
		t.Fatalf("no snapshot, no corpus: err = %v, want ErrNoCorpus", err)
	}
	bad := writeCorpusDir(t, filepath.Join(t.TempDir(), "bad"), map[string]string{
		"a.ls": testSource(0), "z.py": "df = ???\n"})
	if _, _, err := OpenOrCreate(regDir, bad); !errors.Is(err, ErrBadScript) || !strings.Contains(err.Error(), "z.py") {
		t.Fatalf("corpus with a bad script: err = %v, want ErrBadScript naming z.py", err)
	}

	corpus := writeCorpusDir(t, filepath.Join(t.TempDir(), "corpus"), map[string]string{
		"a.ls": testSource(0), "b.py": testSource(1), "c.ls": testSource(2)})
	reg, created, err := OpenOrCreate(regDir, corpus)
	if err != nil || !created {
		t.Fatalf("first OpenOrCreate: created=%v err=%v, want a new registry", created, err)
	}
	if reg.Version() != 1 || reg.NumScripts() != 3 {
		t.Fatalf("created version=%d scripts=%d, want 1/3", reg.Version(), reg.NumScripts())
	}
	// A warm open never reads the corpus directory, so a missing one is
	// no obstacle.
	warm, created, err := OpenOrCreate(regDir, filepath.Join(t.TempDir(), "missing"))
	if err != nil || created {
		t.Fatalf("second OpenOrCreate: created=%v err=%v, want a warm open", created, err)
	}
	if warm.Version() != 1 || !bytes.Equal(mustStateBytes(t, warm), mustStateBytes(t, reg)) {
		t.Fatal("warm open does not hold the created state")
	}
}

// TestSync: an unchanged directory publishes nothing, even though its
// scripts carry weight 0 (which the registry stores as 1); a changed, an
// added and a removed script together publish exactly one new version,
// byte-identical to a from-scratch curation of the new membership.
func TestSync(t *testing.T) {
	corpus := writeCorpusDir(t, t.TempDir(), map[string]string{
		"a.ls": testSource(0), "b.ls": testSource(1), "c.ls": testSource(2), "d.ls": testSource(3)})
	regDir := t.TempDir()
	reg, _, err := OpenOrCreate(regDir, corpus)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if added, removed, err := reg.Sync(want); err != nil || added != 0 || removed != 0 {
		t.Fatalf("unchanged Sync = +%d -%d, %v; want no change", added, removed, err)
	}
	if versions, _ := listVersions(regDir); len(versions) != 1 || reg.Version() != 1 {
		t.Fatalf("unchanged Sync published: versions %v, current v%d", versions, reg.Version())
	}

	writeCorpusDir(t, corpus, map[string]string{"b.ls": testSource(5), "e.ls": testSource(4)})
	if err := os.Remove(filepath.Join(corpus, "c.ls")); err != nil {
		t.Fatal(err)
	}
	if want, err = ReadDir(corpus); err != nil {
		t.Fatal(err)
	}
	added, removed, err := reg.Sync(want)
	if err != nil || added != 2 || removed != 2 {
		t.Fatalf("Sync = +%d -%d, %v; want +2 -2 (b replaced, c removed, e added)", added, removed, err)
	}
	if versions, _ := listVersions(regDir); len(versions) != 2 || reg.Version() != 2 {
		t.Fatalf("Sync published versions %v, current v%d; want exactly one new version", versions, reg.Version())
	}
	// Unchanged members keep their place; replacements and additions
	// append in directory order.
	oracle := oracleCreate(t, []Script{
		{ID: "a.ls", Source: testSource(0)}, {ID: "d.ls", Source: testSource(3)},
		{ID: "b.ls", Source: testSource(5)}, {ID: "e.ls", Source: testSource(4)}})
	opened, err := Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustStateBytes(t, opened), mustStateBytes(t, oracle)) {
		t.Fatal("synced registry diverged from from-scratch curation")
	}
}

// TestIncrementalCurationEquivalence is the differential harness the
// registry's central guarantee rests on: a seeded generative loop applies
// random add/remove batches to one long-lived registry and, after every
// batch, requires the incremental state to be byte-identical to a
// from-scratch curation of the same membership — full serialized state,
// vocabulary encoding against core.Curate, and (at the end) the
// standardization output an engine produces from each.
func TestIncrementalCurationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	next := 0
	var initial []Script
	for ; next < 12; next++ {
		initial = append(initial, testScript(next))
	}
	reg, err := Create(t.TempDir(), initial)
	if err != nil {
		t.Fatal(err)
	}
	// live mirrors the registry's canonical membership order: removals drop
	// in place, additions append.
	live := append([]Script(nil), initial...)

	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		var remove []Script
		if len(live) > 2 {
			n := rng.Intn(len(live) / 2)
			perm := rng.Perm(len(live))[:n]
			picked := map[int]bool{}
			for _, p := range perm {
				picked[p] = true
				remove = append(remove, live[p])
			}
			kept := live[:0]
			for i, s := range live {
				if !picked[i] {
					kept = append(kept, s)
				}
			}
			live = kept
		}
		var add []Script
		for n := rng.Intn(5); n > 0; n-- {
			s := testScript(next)
			next++
			add = append(add, s)
			live = append(live, s)
		}
		if err := reg.Apply(add, remove); err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}

		oracle := oracleCreate(t, live)
		if !bytes.Equal(mustStateBytes(t, reg), mustStateBytes(t, oracle)) {
			t.Fatalf("round %d: incremental state diverged from from-scratch curation (%d live)", round, len(live))
		}
		// Cross-check against the core curation path itself, not just a
		// second registry: the fold must match core.Curate bit for bit.
		parsed := make([]*script.Script, len(live))
		weights := make([]int, len(live))
		for i, s := range live {
			parsed[i] = script.MustParse(s.Source)
			weights[i] = s.Weight
		}
		cc := core.CurateWeighted(parsed, weights, nil)
		same, err := vocabsEqual(reg.Vocab(), cc.Vocab)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Fatalf("round %d: incremental vocabulary diverged from core.Curate", round)
		}
	}

	// Both corpora must drive the engine to the same standardized output.
	sources := map[string]*frame.Frame{"diabetes.csv": diabetesFrame(t, 50)}
	user := script.MustParse("import pandas as pd\ndf = pd.read_csv(\"diabetes.csv\")\ndf = df.fillna(df.median())\n")
	oracle := oracleCreate(t, live)
	var hashes [2][32]byte
	for i, r := range []*Registry{reg, oracle} {
		cfg := core.DefaultConfig()
		cfg.SeqLength = 4
		cfg.Constraint = intent.Constraint{Measure: intent.MeasureJaccard, Tau: 0.5}
		st := core.FromCorpus(&core.CuratedCorpus{Vocab: r.Vocab(), Sources: sources, Version: r.Version()}, cfg)
		res, err := st.Standardize(user)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = sha256.Sum256([]byte(res.Script.Source()))
	}
	if hashes[0] != hashes[1] {
		t.Fatal("standardization outputs diverged between incremental and from-scratch corpora")
	}
}

// diabetesFrame synthesizes the test dataset (same shape as the core
// package's fixture).
func diabetesFrame(t testing.TB, n int) *frame.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var b strings.Builder
	b.WriteString("Pregnancies,Glucose,SkinThickness,Age,Outcome\n")
	for i := 0; i < n; i++ {
		glucose := ""
		if rng.Float64() > 0.1 {
			glucose = fmt.Sprint(80 + rng.Intn(80))
		}
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d\n", rng.Intn(10), glucose, rng.Intn(50), 18+rng.Intn(50), rng.Intn(2))
	}
	f, err := frame.ReadCSVString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestApplyAfterWarmOpenMatchesFresh(t *testing.T) {
	dir := t.TempDir()
	var scripts []Script
	for i := 0; i < 10; i++ {
		scripts = append(scripts, testScript(i))
	}
	if _, err := Create(dir, scripts); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// First Apply after a warm open exercises the lazy scripts load.
	add := []Script{testScript(20), testScript(21)}
	remove := []Script{scripts[3], scripts[7]}
	if err := reg.Apply(add, remove); err != nil {
		t.Fatal(err)
	}
	want := append([]Script{}, scripts[:3]...)
	want = append(want, scripts[4:7]...)
	want = append(want, scripts[8:]...)
	want = append(want, add...)
	oracle := oracleCreate(t, want)
	if !bytes.Equal(mustStateBytes(t, reg), mustStateBytes(t, oracle)) {
		t.Fatal("apply-after-warm-open state diverged from from-scratch curation")
	}
}

func TestApplyValidatesBeforeMutating(t *testing.T) {
	reg := oracleCreate(t, []Script{testScript(0), testScript(1)})
	before := mustStateBytes(t, reg)

	err := reg.Apply([]Script{testScript(5)}, []Script{{ID: "nope"}})
	if !errors.Is(err, ErrUnknownScript) {
		t.Fatalf("unknown removal: err = %v", err)
	}
	err = reg.Apply([]Script{testScript(0)}, nil)
	if !errors.Is(err, ErrDuplicateScript) {
		t.Fatalf("duplicate add: err = %v", err)
	}
	err = reg.Apply([]Script{{ID: "bad", Source: "def f(:\n"}}, []Script{testScript(0)})
	if !errors.Is(err, ErrBadScript) {
		t.Fatalf("unparsable add: err = %v", err)
	}
	if !bytes.Equal(before, mustStateBytes(t, reg)) {
		t.Fatal("failed Apply mutated registry state")
	}
}

// TestChurnPreservesEquivalence removes most of the corpus in batches: the
// state left (records, their order, the atom table of the last fold) must
// be byte-identical to a from-scratch curation of the survivors.
func TestChurnPreservesEquivalence(t *testing.T) {
	var scripts []Script
	for i := 0; i < 200; i++ {
		scripts = append(scripts, testScript(i))
	}
	reg := oracleCreate(t, scripts)
	// Remove three quarters in batches, so atoms only removed members
	// used must leave the atom table.
	for start := 0; start < 150; start += 50 {
		if err := reg.Apply(nil, scripts[start:start+50]); err != nil {
			t.Fatal(err)
		}
	}
	oracle := oracleCreate(t, scripts[150:])
	if !bytes.Equal(mustStateBytes(t, reg), mustStateBytes(t, oracle)) {
		t.Fatal("post-churn state diverged from from-scratch curation")
	}
}

// TestApplyRepeatedRemoval names one member twice in one removal: it is
// removed once, and no other member goes with it.
func TestApplyRepeatedRemoval(t *testing.T) {
	scripts := []Script{testScript(0), testScript(1), testScript(2)}
	reg := oracleCreate(t, scripts)
	if err := reg.Apply(nil, []Script{scripts[1], scripts[1]}); err != nil {
		t.Fatal(err)
	}
	oracle := oracleCreate(t, []Script{scripts[0], scripts[2]})
	if !bytes.Equal(mustStateBytes(t, reg), mustStateBytes(t, oracle)) {
		t.Fatal("a repeated removal diverged from curating the survivors")
	}
}

func TestPublishVersionsAndRetention(t *testing.T) {
	dir := t.TempDir()
	reg, err := Create(dir, []Script{testScript(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := reg.Apply([]Script{testScript(i)}, nil); err != nil {
			t.Fatal(err)
		}
		v, err := reg.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(i + 1); v != want {
			t.Fatalf("publish %d assigned version %d, want %d", i, v, want)
		}
	}
	versions, err := listVersions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != retainVersions {
		t.Fatalf("retained %d versions (%v), want %d", len(versions), versions, retainVersions)
	}
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Version() != 5 || opened.NumScripts() != 5 {
		t.Fatalf("opened version=%d scripts=%d, want 5/5", opened.Version(), opened.NumScripts())
	}
}

func TestOpenRecoversToLastGood(t *testing.T) {
	dir := t.TempDir()
	reg, err := Create(dir, []Script{testScript(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Apply([]Script{testScript(1)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the newest snapshot.
	path := filepath.Join(dir, snapshotName(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(dir)
	if err != nil {
		t.Fatalf("Open did not recover: %v", err)
	}
	if opened.Version() != 1 {
		t.Fatalf("recovered to version %d, want 1", opened.Version())
	}
	if len(opened.Diagnostics()) == 0 {
		t.Fatal("recovery left no diagnostics")
	}
	// The surviving version must be fully usable, lazy load included.
	if err := opened.Apply([]Script{testScript(9)}, nil); err != nil {
		t.Fatalf("Apply on recovered version: %v", err)
	}
}

func TestOpenSurvivesMissingCurrentPointer(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, []Script{testScript(0)}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, currentFile)); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Version() != 1 {
		t.Fatalf("version = %d, want 1", opened.Version())
	}
	if len(opened.Diagnostics()) == 0 {
		t.Fatal("missing CURRENT left no diagnostics")
	}
}

// TestLoadRejectsSectionSwap forges a snapshot whose sections individually
// pass their CRCs but come from different corpora — the per-section
// checksums cannot catch it, the cross-section refold check must.
func TestLoadRejectsSectionSwap(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := Create(dirA, []Script{testScript(0), testScript(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dirB, []Script{testScript(2), testScript(3), testScript(4)}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dirA, snapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	bfile, err := os.ReadFile(filepath.Join(dirB, snapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Graft B's scripts section onto A's prefix. Both corpora have 2-ish
	// scripts... counts differ, so meta catches some swaps; equalize by
	// using same counts when needed — here counts differ (2 vs 3), so build
	// a second A' with 3 scripts for a count-matched swap.
	dirA2 := t.TempDir()
	if _, err := Create(dirA2, []Script{testScript(5), testScript(6), testScript(7)}); err != nil {
		t.Fatal(err)
	}
	a, err = os.ReadFile(filepath.Join(dirA2, snapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	scriptsOf := func(raw []byte) []byte {
		i := bytes.Index(raw, []byte("\nscripts "))
		if i < 0 {
			t.Fatal("no scripts section header")
		}
		return raw[i+1:]
	}
	prefixOf := func(raw []byte) []byte {
		i := bytes.Index(raw, []byte("\nscripts "))
		return raw[:i+1]
	}
	forged := append(append([]byte{}, prefixOf(a)...), scriptsOf(bfile)...)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dir)
	if err != nil {
		// Atom counts may already disagree at the header — that is also a
		// correct rejection.
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		return
	}
	// Header loaded; the lazy scripts load must reject the graft.
	err = reg.Apply(nil, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("section swap loaded: err = %v, want ErrCorrupt", err)
	}
}

// TestFaultKeyIncludesCorpusVersion pins the fix for dense queue job ids
// aliasing chaos rules across hot-swaps: the SiteBatchJob key is the bare
// index only for unversioned corpora.
func TestFaultKeyIncludesCorpusVersion(t *testing.T) {
	reg := oracleCreate(t, []Script{testScript(0)})
	if reg.Version() == 0 {
		t.Fatal("published registry has version 0")
	}
	// Registry-backed corpora stamp their version; see core.jobFaultKey.
	cc := &core.CuratedCorpus{Vocab: reg.Vocab(), Version: reg.Version()}
	if cc.Version != 1 {
		t.Fatalf("corpus version = %d, want 1", cc.Version)
	}
}

// TestStatsOfRoundTrip pins that the cached per-script stats reconstructed
// from a snapshot equal the stats computed from the raw source — the
// property the lazy load's refold check builds on.
func TestStatsOfRoundTrip(t *testing.T) {
	src := testSource(3)
	parsed := script.MustParse(src)
	g := dag.Build(parsed)
	stats := entropy.StatsOf(g, 2)
	if len(stats.LineKeys) != len(g.Lines) {
		t.Fatalf("LineKeys %d, graph lines %d", len(stats.LineKeys), len(g.Lines))
	}
	lineInfos := make([]dag.LineInfo, len(g.Lines))
	copy(lineInfos, g.Lines)
	edges := dag.EdgeKeysOf(lineInfos)
	if len(edges) != len(stats.EdgeKeys) {
		t.Fatalf("EdgeKeysOf %d, stats %d", len(edges), len(stats.EdgeKeys))
	}
	for i := range edges {
		if edges[i] != stats.EdgeKeys[i] {
			t.Fatalf("edge %d: %q vs %q", i, edges[i], stats.EdgeKeys[i])
		}
	}
}
