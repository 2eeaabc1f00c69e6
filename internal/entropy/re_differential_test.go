package entropy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lucidscript/internal/dag"
)

// reFromEdges is the string formula the id path replaced, kept as its
// reference: it counts a script's edge keys into a map, counts the union
// sample space's size, and sums the terms in sorted key order.
func reFromEdges(v *Vocab, edgeKeys []string) float64 {
	p := map[string]int{}
	for _, k := range edgeKeys {
		p[k]++
	}
	spaceN := len(v.EdgeCounts)
	for k := range p {
		if _, ok := v.EdgeCounts[k]; !ok {
			spaceN++
		}
	}
	qTotal := float64(v.TotalEdges) + Epsilon*float64(spaceN)
	pTotal := float64(len(edgeKeys))
	if pTotal == 0 {
		n := float64(spaceN)
		if n == 0 {
			return 0
		}
		keys := make([]string, 0, spaceN)
		for k := range v.EdgeCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		re := 0.0
		for _, k := range keys {
			px := 1.0 / n
			qx := (float64(v.EdgeCounts[k]) + Epsilon) / qTotal
			re += px * math.Log(px/qx)
		}
		return re
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	re := 0.0
	for _, k := range keys {
		px := float64(p[k]) / pTotal
		qx := (float64(v.EdgeCounts[k]) + Epsilon) / qTotal
		re += px * math.Log(px/qx)
	}
	return re
}

// reUnionMap is the formula reFromEdges replaced before it: it materializes
// the union sample space as a map to read its size, and on an empty script
// sums over that map's sorted keys.
func reUnionMap(v *Vocab, edgeKeys []string) float64 {
	p := map[string]int{}
	for _, k := range edgeKeys {
		p[k]++
	}
	space := make(map[string]bool, len(v.EdgeCounts)+len(p))
	for k := range v.EdgeCounts {
		space[k] = true
	}
	for k := range p {
		space[k] = true
	}
	qTotal := float64(v.TotalEdges) + Epsilon*float64(len(space))
	pTotal := float64(len(edgeKeys))
	if pTotal == 0 {
		n := float64(len(space))
		if n == 0 {
			return 0
		}
		keys := make([]string, 0, len(space))
		for k := range space {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		re := 0.0
		for _, k := range keys {
			px := 1.0 / n
			qx := (float64(v.EdgeCounts[k]) + Epsilon) / qTotal
			re += px * math.Log(px/qx)
		}
		return re
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	re := 0.0
	for _, k := range keys {
		px := float64(p[k]) / pTotal
		qx := (float64(v.EdgeCounts[k]) + Epsilon) / qTotal
		re += px * math.Log(px/qx)
	}
	return re
}

// randomVocab folds nKeys edge keys "e0".."e{nKeys-1}" with random counts;
// weighted multiplies each count as a script weight would.
func randomVocab(rng *rand.Rand, nKeys int, weighted bool) *Vocab {
	v := &Vocab{EdgeCounts: map[string]int{}}
	for i := 0; i < nKeys; i++ {
		c := 1 + rng.Intn(5)
		if weighted {
			c *= 1 + rng.Intn(7)
		}
		v.EdgeCounts[fmt.Sprintf("e%d", i)] = c
		v.TotalEdges += c
	}
	return v
}

// TestREFromEdgesMatchesUnionMap pins the string formula's counted sample
// space bit for bit to the materialized one over seeded random edge multisets: duplicates,
// keys the corpus never saw, the empty list, an empty vocab and a weighted
// vocab.
func TestREFromEdgesMatchesUnionMap(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	vocabs := map[string]*Vocab{
		"empty":    {EdgeCounts: map[string]int{}},
		"small":    randomVocab(rng, 3, false),
		"plain":    randomVocab(rng, 40, false),
		"weighted": randomVocab(rng, 40, true),
		"corpus":   BuildVocab(corpusGraphs(t, s1, s2, s3)),
	}
	names := make([]string, 0, len(vocabs))
	for name := range vocabs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := vocabs[name]
		corpusKeys := make([]string, 0, len(v.EdgeCounts))
		for k := range v.EdgeCounts {
			corpusKeys = append(corpusKeys, k)
		}
		sort.Strings(corpusKeys)
		cases := [][]string{nil, {}}
		for i := 0; i < 300; i++ {
			n := rng.Intn(25)
			keys := make([]string, 0, n)
			for j := 0; j < n; j++ {
				switch r := rng.Intn(10); {
				case r < 6 && len(corpusKeys) > 0:
					keys = append(keys, corpusKeys[rng.Intn(len(corpusKeys))])
				case r < 8 && len(keys) > 0:
					keys = append(keys, keys[rng.Intn(len(keys))]) // duplicate
				default:
					keys = append(keys, fmt.Sprintf("unseen%d", rng.Intn(6)))
				}
			}
			cases = append(cases, keys)
		}
		for _, keys := range cases {
			got, want := reFromEdges(v, keys), reUnionMap(v, keys)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("vocab %s, edges %q: string formula = %v (%#x), union map = %v (%#x)",
					name, keys, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// idAtoms is the atom pool of TestScorerMatchesStringRE. Each key's first
// letter places its edges: corpus scripts draw only from the c..w atoms,
// so "A" and "a" edges sort before every corpus key, "m" edges fall between
// corpus keys and "~" edges after the last one. Each atom writes one
// variable and reads up to two, so sequences have many repeated edges.
func idAtoms(rng *rand.Rand) (corpus, all []dag.LineInfo) {
	vars := []string{"v0", "v1", "v2", "v3"}
	mk := func(key string) dag.LineInfo {
		li := dag.LineInfo{Key: key, Writes: []string{vars[rng.Intn(len(vars))]}}
		for i := rng.Intn(3); i > 0; i-- {
			li.Reads = append(li.Reads, vars[rng.Intn(len(vars))])
		}
		return li
	}
	for _, k := range []string{"c0", "c1", "e0", "g0", "k0", "k1", "p0", "s0", "w0", "w1"} {
		corpus = append(corpus, mk(k))
	}
	all = append(all, corpus...)
	for _, k := range []string{"A0", "a0", "a1", "m0", "m1", "m2", "~0", "~1"} {
		all = append(all, mk(k))
	}
	return corpus, all
}

func randomLines(rng *rand.Rand, pool []dag.LineInfo, maxLen int) []dag.LineInfo {
	lines := make([]dag.LineInfo, rng.Intn(maxLen+1))
	for i := range lines {
		lines[i] = pool[rng.Intn(len(pool))]
	}
	return lines
}

// TestScorerMatchesStringRE pins the id path bit for bit to the string
// formula over seeded random line sequences, scored both by one long-lived
// Scorer (ids assigned in whatever order the sequences met them) and by a
// fresh Vocab.RELines. The sequences cover the empty script, repeated
// edges, and unseen edges before the first corpus key, between two, after
// the last, several at one rank, and one next to the corpus edge that
// sorts right after it; the test checks it met each case.
func TestScorerMatchesStringRE(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, weighted := range []bool{false, true} {
		corpusAtoms, all := idAtoms(rng)
		var stats []ScriptStats
		atoms := map[string]dag.LineInfo{}
		for _, li := range all {
			atoms[li.Key] = li
		}
		for i := 0; i < 12; i++ {
			lines := randomLines(rng, corpusAtoms, 8)
			st := ScriptStats{Weight: 1, EdgeKeys: dag.EdgeKeysOf(lines)}
			if weighted {
				st.Weight = 1 + rng.Intn(4)
			}
			for _, li := range lines {
				st.LineKeys = append(st.LineKeys, li.Key)
			}
			stats = append(stats, st)
		}
		v := BuildVocabFromStats(stats, func(key string) dag.LineInfo { return atoms[key] })
		n := int32(v.NumUniqueEdges())
		sc := v.NewScorer()
		var first, between, last, sharedRank, adjacent, repeated, empty bool
		for i := 0; i < 2000; i++ {
			lines := randomLines(rng, all, 14)
			keys := dag.EdgeKeysOf(lines)
			want := reFromEdges(v, keys)
			for _, got := range []float64{sc.RELines(lines), v.RELines(lines)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("weighted=%v, edges %q: id RE = %v (%#x), string RE = %v (%#x)",
						weighted, keys, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			empty = empty || len(keys) == 0
			ranks := map[int32]int{}
			seen := map[int32]bool{}
			for _, e := range sc.EdgesOf(sc.InternAll(lines), nil) {
				if seen[e] {
					repeated = true
					continue
				}
				seen[e] = true
				if sc.IsCorpusEdge(e) {
					continue
				}
				r := sc.unseen[e-n].rank
				adjacent = adjacent || seen[r] // corpus id r sorts right after it
				first = first || r == 0
				between = between || (r > 0 && r < n)
				last = last || r == n
				ranks[r]++
			}
			for _, c := range ranks {
				sharedRank = sharedRank || c > 1
			}
		}
		if !(first && between && last && sharedRank && adjacent && repeated && empty) {
			t.Fatalf("weighted=%v: coverage first=%v between=%v last=%v sharedRank=%v adjacent=%v repeated=%v empty=%v",
				weighted, first, between, last, sharedRank, adjacent, repeated, empty)
		}
	}
}
