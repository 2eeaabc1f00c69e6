package core

import (
	"math"
	"slices"

	"lucidscript/internal/entropy"
)

// clusterSteps groups ranked transformations into m clusters by K-means over
// each transformation's updated edge-distribution vector P(x) (the paper's
// ClusterSteps). Within each cluster, transformations stay ranked by RE.
// When there are fewer transformations than clusters, each gets its own.
func clusterSteps(c *candidate, steps []step, m int, sc *entropy.Scorer) [][]step {
	if m <= 1 || len(steps) <= m {
		out := make([][]step, 0, len(steps))
		for _, s := range steps {
			out = append(out, []step{s})
		}
		return out
	}
	assign := kmeans(edgeVectors(c, steps, sc), m, 12)
	out := make([][]step, m)
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

// edgeVectors embeds each post-transformation script as a normalized count
// vector over the corpus edges. The feature space is the corpus edge
// vocabulary in id (sorted key) order, restricted to the edges some step
// touches: every dropped dimension is zero in every vector, and so in
// every centroid, and the distances and centroid sums K-means takes over
// the full space differ only by exact +0.0 terms. Assignments are the same
// bit for bit.
func edgeVectors(c *candidate, steps []step, sc *entropy.Scorer) [][]float64 {
	// flat holds every step's corpus edges, step i's ending at ends[i].
	var flat []int32
	ends := make([]int, len(steps))
	buf := make([]int32, 0, len(c.ids)+1)
	for i, s := range steps {
		buf = applyIDs(buf[:0], c.ids, s.Transformation, sc.Intern(s.Atom))
		start := len(flat)
		flat = sc.EdgesOf(buf, flat)
		kept := flat[:start]
		for _, e := range flat[start:] {
			if sc.IsCorpusEdge(e) {
				kept = append(kept, e)
			}
		}
		flat, ends[i] = kept, len(kept)
	}
	dims := append([]int32(nil), flat...)
	slices.Sort(dims)
	dims = slices.Compact(dims)
	vecs := make([][]float64, len(steps))
	start := 0
	for i, end := range ends {
		vec := make([]float64, len(dims))
		for _, e := range flat[start:end] {
			j, _ := slices.BinarySearch(dims, e)
			vec[j]++
		}
		if total := float64(end - start); total > 0 {
			for j := range vec {
				vec[j] /= total
			}
		}
		vecs[i], start = vec, end
	}
	return vecs
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
