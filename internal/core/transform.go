package core

import (
	"fmt"
	"sort"

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
	// RE is the relative entropy of the script after applying the
	// transformation, filled in by GetSteps.
	RE float64
}

// String renders the transformation for logs and explanations.
func (tr Transformation) String() string {
	return fmt.Sprintf("%s @%d: %s", tr.Type, tr.Pos, tr.Atom.Key)
}

// candidate is one in-progress transformation sequence: the current line
// atoms, the score, the monotonicity low-water mark, and bookkeeping.
type candidate struct {
	lines    []dag.LineInfo
	re       float64
	lowWater int // transformations must not touch positions before this
	applied  []Transformation
	checked  bool       // execution already verified (early checking)
	parent   *candidate // lineage link for diversity-preserving selection
}

func (c *candidate) key() string {
	s := ""
	for _, li := range c.lines {
		s += li.Key + "\n"
	}
	return s
}

// apply returns the candidate produced by one transformation, enforcing
// monotonicity (optimization 3): the new low-water mark is the transformed
// position, so later transformations cannot modify earlier lines.
func (c *candidate) apply(tr Transformation, v *entropy.Vocab) *candidate {
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
		re:       v.RELines(lines),
		lowWater: low,
		applied:  append(append([]Transformation(nil), c.applied...), tr),
		parent:   c,
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
// of the resulting script, most standard first.
func getSteps(c *candidate, v *entropy.Vocab) []Transformation {
	return getStepsOpt(c, v, true)
}

func getStepsOpt(c *candidate, v *entropy.Vocab, lookahead bool) []Transformation {
	var steps []Transformation
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
		tr.RE = reAfter(c, tr, v)
		if lookahead && v.LineCounts[c.lines[i].Key] == 0 {
			if la := deleteLookahead(c.lines, i, v, 3); la < tr.RE {
				tr.RE = la
			}
		}
		steps = append(steps, tr)
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
		positions := []int{lo, suggested, hi}
		seen := map[int]bool{}
		for _, p := range positions {
			if seen[p] {
				continue
			}
			seen[p] = true
			tr := Transformation{Type: TransformAdd, Atom: atom, Pos: p}
			tr.RE = reAfter(c, tr, v)
			steps = append(steps, tr)
		}
	}
	sortSteps(steps)
	return steps
}

// deleteLookahead returns the best RE reachable from deleting lines[pos] and
// then greedily deleting up to depth-1 more corpus-unseen atoms at positions
// ≥ pos (respecting monotonicity). It is a ranking signal only; the beam
// still applies one delete at a time.
func deleteLookahead(lines []dag.LineInfo, pos int, v *entropy.Vocab, depth int) float64 {
	cur := append(append([]dag.LineInfo(nil), lines[:pos]...), lines[pos+1:]...)
	best := v.RELines(cur)
	low := pos - 1
	if low < 0 {
		low = 0
	}
	for d := 1; d < depth; d++ {
		bestI, bestRE := -1, best
		for i := low; i < len(cur); i++ {
			if protectedLine(cur[i]) || v.LineCounts[cur[i].Key] > 0 {
				continue
			}
			nl := append(append([]dag.LineInfo(nil), cur[:i]...), cur[i+1:]...)
			if re := v.RELines(nl); re < bestRE {
				bestRE, bestI = re, i
			}
		}
		if bestI < 0 {
			break
		}
		cur = append(append([]dag.LineInfo(nil), cur[:bestI]...), cur[bestI+1:]...)
		low = bestI - 1
		if low < 0 {
			low = 0
		}
		best = bestRE
	}
	return best
}

// reAfter scores a transformation by the RE of the resulting line sequence
// without materializing a candidate.
func reAfter(c *candidate, tr Transformation, v *entropy.Vocab) float64 {
	var lines []dag.LineInfo
	switch tr.Type {
	case TransformAdd:
		lines = make([]dag.LineInfo, 0, len(c.lines)+1)
		lines = append(lines, c.lines[:tr.Pos]...)
		lines = append(lines, tr.Atom)
		lines = append(lines, c.lines[tr.Pos:]...)
	case TransformDelete:
		lines = make([]dag.LineInfo, 0, len(c.lines)-1)
		lines = append(lines, c.lines[:tr.Pos]...)
		lines = append(lines, c.lines[tr.Pos+1:]...)
	}
	return v.RELines(lines)
}

// sortSteps orders transformations by ascending RE with deterministic
// tie-breaking.
func sortSteps(steps []Transformation) {
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
