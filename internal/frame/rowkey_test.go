package frame_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/frame"
	"lucidscript/internal/intent"
)

// referenceRows renders every row the direct way: name=value cells in
// column-name order, joined by tabs, values through StringAt and nulls as
// "<null>". Row identity was first defined on these strings; the typed row
// keys must stand for them wherever no cell or name holds a tab or '='.
func referenceRows(f *frame.Frame) []string {
	names := f.ColumnNames()
	sort.Strings(names)
	rows := make([]string, f.NumRows())
	for i := range rows {
		cells := make([]string, len(names))
		for j, name := range names {
			col, _ := f.Column(name)
			v := "<null>"
			if col.IsValid(i) {
				v = col.StringAt(i)
			}
			cells[j] = name + "=" + v
		}
		rows[i] = strings.Join(cells, "\t")
	}
	return rows
}

func referenceDuplicated(f *frame.Frame) frame.Mask {
	seen := map[string]bool{}
	m := make(frame.Mask, f.NumRows())
	for i, row := range referenceRows(f) {
		m[i] = seen[row]
		seen[row] = true
	}
	return m
}

func referenceRowCounts(f *frame.Frame) map[string]int {
	counts := map[string]int{}
	for _, row := range referenceRows(f) {
		counts[row]++
	}
	return counts
}

func referenceRowJaccard(ca, cb map[string]int) float64 {
	inter, union := 0, 0
	for row, na := range ca {
		inter += min(na, cb[row])
		union += max(na, cb[row])
	}
	for row, nb := range cb {
		if _, ok := ca[row]; !ok {
			union += nb
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// referenceMerge is frame.Merge with the right key column indexed by
// StringAt rendering.
func referenceMerge(left, right *frame.Frame, on string, kind frame.JoinKind) (*frame.Frame, error) {
	lk, err := left.Column(on)
	if err != nil {
		return nil, err
	}
	rk, err := right.Column(on)
	if err != nil {
		return nil, err
	}
	rIndex := map[string]int{}
	for i := 0; i < right.NumRows(); i++ {
		if _, seen := rIndex[rk.StringAt(i)]; rk.IsValid(i) && !seen {
			rIndex[rk.StringAt(i)] = i
		}
	}
	var leftPos, rightPos []int
	for i := 0; i < left.NumRows(); i++ {
		j, ok := rIndex[lk.StringAt(i)]
		if !lk.IsValid(i) || !ok {
			if kind == frame.InnerJoin {
				continue
			}
			j = -1
		}
		leftPos = append(leftPos, i)
		rightPos = append(rightPos, j)
	}
	out, err := left.Take(leftPos)
	if err != nil {
		return nil, err
	}
	for c := 0; c < right.NumCols(); c++ {
		rc := right.ColumnAt(c)
		if rc.Name() == on {
			continue
		}
		name := rc.Name()
		if out.HasColumn(name) {
			name += "_y"
		}
		col := frame.NewEmptySeries(name, rc.Kind(), len(leftPos))
		for i, rp := range rightPos {
			if rp < 0 || !rc.IsValid(rp) {
				continue
			}
			switch rc.Kind() {
			case frame.Float:
				col.SetFloat(i, rc.Float(rp))
			case frame.Int:
				col.SetInt(i, int64(rc.Float(rp)))
			case frame.String:
				col.SetString(i, rc.StringAt(rp))
			case frame.Bool:
				col.SetBool(i, rc.BoolAt(rp))
			}
		}
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// renderSafe reports whether no column name or string cell of f holds a
// tab or '=', the characters the reference rendering joins with.
func renderSafe(f *frame.Frame) bool {
	for _, name := range f.ColumnNames() {
		col, _ := f.Column(name)
		if strings.ContainsAny(name, "\t=") {
			return false
		}
		for i := 0; col.Kind() == frame.String && i < col.Len(); i++ {
			if strings.ContainsAny(col.StringAt(i), "\t=") {
				return false
			}
		}
	}
	return true
}

// rowKeyFrames returns the differential test's inputs, each with its
// group: the value-set edge frames and each of their columns alone renamed
// "k" (so keys of every kind meet) form one group, the sources and outputs
// of one gen seed another, the sources of one competition another.
func rowKeyFrames(t *testing.T) (frames map[string]*frame.Frame, groups map[string]string) {
	t.Helper()
	frames, groups = map[string]*frame.Frame{}, map[string]string{}
	for name, f := range valueSetEdgeFrames(t) {
		frames[name], groups[name] = f, "edge"
		for _, c := range f.ColumnNames() {
			col, _ := f.Select(c)
			k, err := col.RenameColumn(c, "k")
			if err != nil {
				t.Fatal(err)
			}
			cn := fmt.Sprintf("%s column %s", name, c)
			frames[cn], groups[cn] = k, "edge"
		}
	}
	// Cells holding the key encoding's tag bytes: only the string length
	// prefix tells these two rows apart.
	tags, err := frame.FromSeries(frame.NewStringSeries("a", []string{"x\x03y", "x"}),
		frame.NewStringSeries("b", []string{"z", "y\x03z"}))
	if err != nil {
		t.Fatal(err)
	}
	frames["tag bytes"], groups["tag bytes"] = tags, "edge"
	gens := map[string]*frame.Frame{}
	addGenFrames(t, gens)
	for name, f := range gens {
		var seed int
		if _, err := fmt.Sscanf(name, "gen seed %d", &seed); err != nil {
			t.Fatal(err)
		}
		frames[name], groups[name] = f, fmt.Sprint("gen seed ", seed)
	}
	for _, c := range corpusgen.All() {
		g, err := c.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.01, MinRows: 120, NumScripts: 1})
		if err != nil {
			t.Fatal(err)
		}
		for file, f := range g.Sources {
			frames[c.Name+" "+file], groups[c.Name+" "+file] = f, c.Name
		}
	}
	// A frame's first half shares rows with it.
	for name, f := range frames {
		frames[name+" head"], groups[name+" head"] = f.Head(f.NumRows()/2), groups[name]
	}
	return frames, groups
}

// checkMerge fails unless Merge and the reference agree on every shared
// column of left and right, for both join kinds.
func checkMerge(t *testing.T, ln, rn string, left, right *frame.Frame) {
	t.Helper()
	for _, on := range left.ColumnNames() {
		if !right.HasColumn(on) {
			continue
		}
		for _, kind := range []frame.JoinKind{frame.InnerJoin, frame.LeftJoin} {
			got, gotErr := frame.Merge(left, right, on, kind)
			want, wantErr := referenceMerge(left, right, on, kind)
			switch {
			case (gotErr != nil) != (wantErr != nil):
				t.Errorf("Merge(%s, %s, %q, %s): err %v, reference err %v", ln, rn, on, kind, gotErr, wantErr)
			case gotErr == nil && got.Digest() != want.Digest():
				t.Errorf("Merge(%s, %s, %q, %s) differs from the reference:\n%s\nwant\n%s", ln, rn, on, kind, got, want)
			}
		}
	}
}

// TestRowKeysMatchRenderedReference pins Duplicated, intent.RowJaccard and
// Merge to the rendered-row reference on every input the rendering cannot
// confuse: RowJaccard on every pair of inputs, Merge on every pair within a
// group, on every shared column.
func TestRowKeysMatchRenderedReference(t *testing.T) {
	frames, groups := rowKeyFrames(t)
	var names []string
	for name, f := range frames {
		if renderSafe(f) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) < len(frames)*9/10 {
		t.Fatalf("only %d of %d inputs are render-safe", len(names), len(frames))
	}
	counts := map[string]map[string]int{}
	for _, name := range names {
		f := frames[name]
		if got, want := f.Duplicated(), referenceDuplicated(f); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Duplicated %v, want %v", name, got, want)
		}
		counts[name] = referenceRowCounts(f)
	}
	for _, an := range names {
		for _, bn := range names {
			got, err := intent.RowJaccard(frames[an], frames[bn])
			if want := referenceRowJaccard(counts[an], counts[bn]); err != nil || got != want {
				t.Errorf("RowJaccard(%s, %s) = %v, %v; want %v", an, bn, got, err, want)
			}
			if groups[an] == groups[bn] {
				checkMerge(t, an, bn, frames[an], frames[bn])
			}
		}
	}
}
