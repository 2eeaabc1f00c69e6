package core

import (
	"math"
	"sort"

	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
)

// clusterSteps groups ranked transformations into m clusters by K-means over
// each transformation's updated edge-distribution vector P(x) (the paper's
// ClusterSteps). Within each cluster, transformations stay ranked by RE.
// When there are fewer transformations than clusters, each gets its own.
func clusterSteps(c *candidate, steps []Transformation, m int, v *entropy.Vocab) [][]Transformation {
	if m <= 1 || len(steps) <= m {
		out := make([][]Transformation, 0, len(steps))
		for _, s := range steps {
			out = append(out, []Transformation{s})
		}
		return out
	}
	// Feature space: the corpus edge vocabulary, densely indexed.
	dim := map[string]int{}
	keys := make([]string, 0, len(v.EdgeCounts))
	for k := range v.EdgeCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		dim[k] = i
	}
	vecs := make([][]float64, len(steps))
	for i, tr := range steps {
		vecs[i] = edgeVector(c, tr, dim)
	}
	assign := kmeans(vecs, m, 12)
	out := make([][]Transformation, m)
	for i, a := range assign {
		out[a] = append(out[a], steps[i])
	}
	// Drop empty clusters.
	res := out[:0]
	for _, cl := range out {
		if len(cl) > 0 {
			res = append(res, cl)
		}
	}
	return res
}

// edgeVector embeds the post-transformation script as a normalized edge
// count vector over the corpus edge vocabulary.
func edgeVector(c *candidate, tr Transformation, dim map[string]int) []float64 {
	vec := make([]float64, len(dim))
	total := 0.0
	for _, k := range dag.EdgeKeysOf(applyLines(c.lines, tr)) {
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
	return vec
}

// kmeans runs Lloyd's algorithm with deterministic farthest-point seeding.
func kmeans(vecs [][]float64, k, iters int) []int {
	n := len(vecs)
	assign := make([]int, n)
	if n == 0 {
		return assign
	}
	if k > n {
		k = n
	}
	d := len(vecs[0])
	centroids := make([][]float64, k)
	// Seed 0: first vector; subsequent: farthest from chosen set.
	centroids[0] = append([]float64(nil), vecs[0]...)
	for c := 1; c < k; c++ {
		bestI, bestD := 0, -1.0
		for i := 0; i < n; i++ {
			minD := math.MaxFloat64
			for cc := 0; cc < c; cc++ {
				dd := sqDist(vecs[i], centroids[cc])
				if dd < minD {
					minD = dd
				}
			}
			if minD > bestD {
				bestD, bestI = minD, i
			}
		}
		centroids[c] = append([]float64(nil), vecs[bestI]...)
	}
	counts := make([]int, k)
	for it := 0; it < iters; it++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := 0, math.MaxFloat64
			for c := 0; c < k; c++ {
				dd := sqDist(vecs[i], centroids[c])
				if dd < bestD {
					bestD, best = dd, c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		for c := 0; c < k; c++ {
			counts[c] = 0
			for j := 0; j < d; j++ {
				centroids[c][j] = 0
			}
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			for j := 0; j < d; j++ {
				centroids[c][j] += vecs[i][j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := 0; j < d; j++ {
				centroids[c][j] /= float64(counts[c])
			}
		}
	}
	return assign
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		dv := a[i] - b[i]
		s += dv * dv
	}
	return s
}
