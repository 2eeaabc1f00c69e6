package entropy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// reUnionMap is the reference formula REFromEdges replaced: it materializes
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

// TestREFromEdgesMatchesUnionMap pins the counted sample space bit for bit
// to the materialized one over seeded random edge multisets: duplicates,
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
			got, want := v.REFromEdges(keys), reUnionMap(v, keys)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("vocab %s, edges %q: REFromEdges = %v (%#x), union map = %v (%#x)",
					name, keys, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
