package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/gen"
	"lucidscript/internal/script"
)

// denseEdgeVectors is the embedding edgeVectors replaced, kept as its
// reference: each post-transformation script as a normalized count vector
// over every corpus edge in sorted key order, built from edge key strings.
func denseEdgeVectors(c *candidate, steps []step, v *entropy.Vocab) [][]float64 {
	keys := make([]string, 0, len(v.EdgeCounts))
	for k := range v.EdgeCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dim := make(map[string]int, len(keys))
	for i, k := range keys {
		dim[k] = i
	}
	vecs := make([][]float64, len(steps))
	for si, s := range steps {
		vec := make([]float64, len(dim))
		total := 0.0
		for _, k := range dag.EdgeKeysOf(applyLines(c.lines, s.Transformation)) {
			if i, ok := dim[k]; ok {
				vec[i]++
				total++
			}
		}
		if total > 0 {
			for i := range vec {
				vec[i] /= total
			}
		}
		vecs[si] = vec
	}
	return vecs
}

// clusterDataset is one corpus and the job scripts whose steps are
// clustered against it.
type clusterDataset struct {
	name   string
	corpus []*script.Script
	jobs   []*script.Script
}

func clusterDatasets(t *testing.T) []clusterDataset {
	t.Helper()
	var out []clusterDataset
	for seed := int64(1); seed <= 6; seed++ {
		g := gen.New(seed)
		out = append(out, clusterDataset{name: fmt.Sprintf("gen seed %d", seed), corpus: g.Scripts(10), jobs: g.Scripts(4)})
	}
	comp, err := corpusgen.Get("Sales")
	if err != nil {
		t.Fatal(err)
	}
	data, err := comp.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	sales := clusterDataset{name: "Sales", corpus: data.ScriptsOnly()}
	for _, cfg := range []corpusgen.ScaleConfig{
		{Seed: 2, NumScripts: 8, MinimalRatio: 0.5, ImputeSplitRatio: 0.5},
		{Seed: 2, NumScripts: 4},
	} {
		jobs, err := comp.GenerateScaled(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			sales.jobs = append(sales.jobs, j.Script)
		}
	}
	return append(out, sales)
}

// TestClusterStepsMatchDense pins clusterSteps' union-dimension embedding
// to the dense one over every corpus edge: on the first two levels of each
// job's search tree, both give the same clusters, and every pairwise
// squared distance agrees bit for bit.
func TestClusterStepsMatchDense(t *testing.T) {
	for _, d := range clusterDatasets(t) {
		v := Curate(d.corpus, nil).Vocab
		clustered, dropped := 0, false
		for ji, su := range d.jobs {
			sc := v.NewScorer()
			root := newCandidate(dag.Build(su).Lines, sc)
			cands := []*candidate{root}
			for _, s := range limitSteps(getStepsOpt(root, sc, true), 4) {
				cands = append(cands, root.apply(s, sc))
			}
			for ci, c := range cands {
				steps := limitSteps(getStepsOpt(c, sc, true), DefaultConfig().StepLimit)
				if len(steps) <= diversityClusters {
					continue
				}
				got := clusterSteps(c, steps, diversityClusters, sc)
				dense := denseEdgeVectors(c, steps, v)
				union := edgeVectors(c, steps, sc)
				dropped = dropped || len(union[0]) < len(dense[0])
				for i := range steps {
					for j := range steps {
						if a, b := sqDist(union[i], union[j]), sqDist(dense[i], dense[j]); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("%s job %d cand %d: sqDist(%d, %d) union %v, dense %v", d.name, ji, ci, i, j, a, b)
						}
					}
				}
				want := make([][]step, diversityClusters)
				for i, a := range kmeans(dense, diversityClusters, 12) {
					want[a] = append(want[a], steps[i])
				}
				var wantNonEmpty [][]step
				for _, cl := range want {
					if len(cl) > 0 {
						wantNonEmpty = append(wantNonEmpty, cl)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(wantNonEmpty) {
					t.Fatalf("%s job %d cand %d: clusters\n%v\nwant\n%v", d.name, ji, ci, got, wantNonEmpty)
				}
				clustered++
			}
		}
		if clustered == 0 || !dropped {
			t.Fatalf("%s: clustered %d step lists, union ever smaller than the corpus: %v", d.name, clustered, dropped)
		}
	}
}
