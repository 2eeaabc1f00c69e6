package core

import (
	"fmt"
	"sort"
	"strings"

	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
)

// TransformType identifies the two transformation kinds of Definition 3.4
// (an edit is modeled as a delete followed by an add).
type TransformType int

// The transformation kinds.
const (
	TransformAdd TransformType = iota
	TransformDelete
)

// String names the transformation kind.
func (t TransformType) String() string {
	if t == TransformAdd {
		return "add"
	}
	return "delete"
}

// Transformation is one add/delete of a line atom at a position
// (Definition 3.4: type, what to change, where to change).
type Transformation struct {
	Type TransformType
	// Atom is the line atom added (for add) or removed (for delete).
	Atom dag.LineInfo
	// Pos is the insertion index (add inserts before the line currently at
	// Pos) or the index of the removed line (delete).
	Pos int
	// RE is the score GetSteps ranks the transformation by, exposed as
	// Result.Applied[i].RE: the relative entropy of the script after
	// applying it, except that a delete of a corpus-unseen atom scores the
	// best RE its chained-delete lookahead reaches (see deleteLookahead).
	RE float64
}

// String renders the transformation for logs and explanations.
func (tr Transformation) String() string {
	return fmt.Sprintf("%s @%d: %s", tr.Type, tr.Pos, tr.Atom.Key)
}

// step is a ranked transformation together with the plain RE of the
// script it produces, which candidate.apply reuses: tr.RE can instead be
// the chained-delete lookahead's score (see deleteLookahead).
type step struct {
	Transformation
	re float64
}

// candidate is one in-progress transformation sequence: the current line
// atoms, the score, the monotonicity low-water mark, and bookkeeping.
type candidate struct {
	lines    []dag.LineInfo
	ids      []int32 // the lines' atom ids in the search's Scorer
	key      string  // the line keys, each ended by "\n": the dedup key and tie-break
	re       float64
	lowWater int // transformations must not touch positions before this
	applied  []Transformation
	parent   *candidate // lineage link for diversity-preserving selection
}

// newCandidate returns the candidate for lines, scored and keyed.
func newCandidate(lines []dag.LineInfo, sc *entropy.Scorer) *candidate {
	ids := sc.InternAll(lines)
	return &candidate{lines: lines, ids: ids, key: linesKey(lines), re: sc.RE(ids)}
}

// linesKey joins the line keys, each ended by "\n".
func linesKey(lines []dag.LineInfo) string {
	n := 0
	for _, li := range lines {
		n += len(li.Key) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for _, li := range lines {
		b.WriteString(li.Key)
		b.WriteByte('\n')
	}
	return b.String()
}

// apply returns the candidate produced by one ranked transformation,
// enforcing monotonicity (optimization 3): the new low-water mark is the
// transformed position, so later transformations cannot modify earlier
// lines.
func (c *candidate) apply(s step, sc *entropy.Scorer) *candidate {
	tr := s.Transformation
	lines := applyLines(c.lines, tr)
	var low int
	switch tr.Type {
	case TransformAdd:
		low = tr.Pos + 1
	case TransformDelete:
		// Allow the next delete one position earlier: removing a multi-line
		// block must proceed consumer-first (deleting a producer first breaks
		// execution), which walks backwards one line at a time. This cannot
		// repair non-executability (a consumer never precedes its producer in
		// straight-line code), so the monotonicity invariant is preserved.
		low = tr.Pos - 1
		if low < 0 {
			low = 0
		}
	}
	return &candidate{
		lines:    lines,
		ids:      applyIDs(make([]int32, 0, len(c.ids)+1), c.ids, tr, sc.Intern(tr.Atom)),
		key:      linesKey(lines),
		re:       s.re,
		lowWater: low,
		applied:  append(append([]Transformation(nil), c.applied...), tr),
		parent:   c,
	}
}

// applyIDs appends to dst the atom ids produced by one transformation of
// ids, whose atom has id atom: applyLines on ids.
func applyIDs(dst, ids []int32, tr Transformation, atom int32) []int32 {
	switch tr.Type {
	case TransformAdd:
		dst = append(dst, ids[:tr.Pos]...)
		dst = append(dst, atom)
		return append(dst, ids[tr.Pos:]...)
	default:
		dst = append(dst, ids[:tr.Pos]...)
		return append(dst, ids[tr.Pos+1:]...)
	}
}

// applyLines returns the lines produced by one transformation, leaving the
// given lines untouched.
func applyLines(lines []dag.LineInfo, tr Transformation) []dag.LineInfo {
	var out []dag.LineInfo
	switch tr.Type {
	case TransformAdd:
		out = make([]dag.LineInfo, 0, len(lines)+1)
		out = append(out, lines[:tr.Pos]...)
		out = append(out, tr.Atom)
		out = append(out, lines[tr.Pos:]...)
	case TransformDelete:
		out = make([]dag.LineInfo, 0, len(lines)-1)
		out = append(out, lines[:tr.Pos]...)
		out = append(out, lines[tr.Pos+1:]...)
	}
	return out
}

// protectedLine reports whether a line atom must not be deleted: imports and
// read_csv lines are load-bearing for every script in the corpus, so
// enumerating their deletion only wastes execution checks.
func protectedLine(li dag.LineInfo) bool {
	key := li.Key
	if len(key) >= 6 && key[:6] == "import" {
		return true
	}
	for i := 0; i+8 <= len(key); i++ {
		if key[i:i+8] == "read_csv" {
			return true
		}
	}
	return false
}

// writesConventional reports whether the atom writes a conventional split
// variable (such atoms may be placed at or after the split).
func writesConventional(atom dag.LineInfo) bool {
	for _, w := range atom.Writes {
		if dag.IsConventionalName(w) {
			return true
		}
	}
	return false
}

// earliestInsertPos returns the smallest insertion index at which every
// variable the atom reads has a writer earlier in the line sequence, or -1
// when some read variable has no writer at all.
func earliestInsertPos(lines []dag.LineInfo, atom dag.LineInfo) int {
	pos := 0
	for _, r := range atom.Reads {
		found := -1
		for i, li := range lines {
			for _, w := range li.Writes {
				if w == r {
					found = i
					break
				}
			}
			if found == i {
				break
			}
		}
		if found == -1 {
			return -1
		}
		if found+1 > pos {
			pos = found + 1
		}
	}
	return pos
}

// GetSteps enumerates and ranks the possible next transformations for a
// candidate (Section 5.2): deletes of existing atoms at positions past the
// low-water mark, and adds of corpus atoms at dependency-valid positions
// near their corpus mean relative position. The result is sorted by the RE
// of the resulting script, most standard first; lookahead enables the
// chained-delete ranking of corpus-unseen atoms.
func getStepsOpt(c *candidate, sc *entropy.Scorer, lookahead bool) []step {
	v := sc.Vocab()
	var steps []step
	buf := make([]int32, 0, len(c.ids)+1)
	// Deletes. A single delete inside a connected block of corpus-unseen
	// atoms (e.g. an injected leakage snippet) barely moves RE because its
	// unseen edges merely re-route; the gain lands only when the whole block
	// is gone. Deletes of unseen atoms are therefore ranked by a chained-
	// delete lookahead: the best RE reachable by following up with more
	// deletes of unseen atoms.
	for i := c.lowWater; i < len(c.lines); i++ {
		if protectedLine(c.lines[i]) {
			continue
		}
		tr := Transformation{Type: TransformDelete, Atom: c.lines[i], Pos: i}
		buf = applyIDs(buf[:0], c.ids, tr, -1)
		re := sc.RE(buf)
		tr.RE = re
		if lookahead && v.LineCounts[c.lines[i].Key] == 0 {
			if la := deleteLookahead(sc, c.lines, i, re, 3); la < tr.RE {
				tr.RE = la
			}
		}
		steps = append(steps, step{Transformation: tr, re: re})
	}
	// Adds: every corpus line atom not already present, at up to three
	// candidate positions. Exact duplicates are excluded — repeating an
	// identical prep step never helps the data and would let the search
	// game the RE objective by stuffing common edges.
	present := map[string]bool{}
	for _, li := range c.lines {
		present[li.Key] = true
	}
	n := len(c.lines)
	// Preparation steps belong before the target split: cap insertion of
	// non-split atoms at the first line that writes a conventional split
	// variable (y, X, ...). The corpus's relative positions imply the same
	// ordering; the cap enforces it exactly.
	splitPos := n
	for i, li := range c.lines {
		for _, w := range li.Writes {
			if dag.IsConventionalName(w) {
				splitPos = i
				break
			}
		}
		if splitPos == i {
			break
		}
	}
	for _, key := range v.SortedLineKeys() {
		if present[key] {
			continue
		}
		atom := v.Lines[key]
		hi := n
		if !writesConventional(atom) && splitPos < hi {
			hi = splitPos
		}
		lo := earliestInsertPos(c.lines, atom)
		if lo < 0 {
			continue
		}
		if lo < c.lowWater {
			lo = c.lowWater
		}
		if lo > hi {
			continue
		}
		suggested := int(v.MeanPos[key]*float64(n) + 0.5)
		if suggested < lo {
			suggested = lo
		}
		if suggested > hi {
			suggested = hi
		}
		id := sc.Intern(atom)
		for k, p := range [3]int{lo, suggested, hi} {
			if (k > 0 && p == lo) || (k == 2 && p == suggested) {
				continue
			}
			tr := Transformation{Type: TransformAdd, Atom: atom, Pos: p}
			buf = applyIDs(buf[:0], c.ids, tr, id)
			tr.RE = sc.RE(buf)
			steps = append(steps, step{Transformation: tr, re: tr.RE})
		}
	}
	sortSteps(steps)
	return steps
}

// deleteLookahead returns the best RE reachable from deleting lines[pos],
// which scores best, and then greedily deleting up to depth-1 more
// corpus-unseen atoms at positions ≥ pos (respecting monotonicity). It is a
// ranking signal only; the beam still applies one delete at a time.
func deleteLookahead(sc *entropy.Scorer, lines []dag.LineInfo, pos int, best float64, depth int) float64 {
	v := sc.Vocab()
	cur := applyLines(lines, Transformation{Type: TransformDelete, Pos: pos})
	low := pos - 1
	if low < 0 {
		low = 0
	}
	for d := 1; d < depth; d++ {
		bestI, bestRE := -1, best
		var bestLines []dag.LineInfo
		for i := low; i < len(cur); i++ {
			if protectedLine(cur[i]) || v.LineCounts[cur[i].Key] > 0 {
				continue
			}
			nl := applyLines(cur, Transformation{Type: TransformDelete, Pos: i})
			if re := sc.RELines(nl); re < bestRE {
				bestRE, bestI, bestLines = re, i, nl
			}
		}
		if bestI < 0 {
			break
		}
		cur = bestLines
		low = bestI - 1
		if low < 0 {
			low = 0
		}
		best = bestRE
	}
	return best
}

// sortSteps orders transformations by ascending RE with deterministic
// tie-breaking.
func sortSteps(steps []step) {
	sort.Slice(steps, func(i, j int) bool {
		a, b := steps[i], steps[j]
		if a.RE != b.RE {
			return a.RE < b.RE
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.Atom.Key < b.Atom.Key
	})
}
