package frame

import "fmt"

// JoinKind selects the merge semantics.
type JoinKind int

// The supported join kinds.
const (
	// InnerJoin keeps rows whose key appears in both frames.
	InnerJoin JoinKind = iota
	// LeftJoin keeps every left row; unmatched right columns become null.
	LeftJoin
)

// String names the join kind in pandas terms.
func (k JoinKind) String() string {
	if k == LeftJoin {
		return "left"
	}
	return "inner"
}

// Merge joins two frames on the named key column, like pandas df.merge
// (how="inner"/"left"). Two key cells match when they are one value
// (cellKey), so Int 3 meets Float 3 and String "3"; a null key matches
// nothing. When several right rows share a key, the first match wins
// (sufficient for the dimension-table lookups preparation scripts
// perform). Non-key right columns that collide with left column names are
// suffixed "_y".
func Merge(left, right *Frame, on string, kind JoinKind) (*Frame, error) {
	lk, err := left.Column(on)
	if err != nil {
		return nil, fmt.Errorf("frame: merge left: %w", err)
	}
	rk, err := right.Column(on)
	if err != nil {
		return nil, fmt.Errorf("frame: merge right: %w", err)
	}
	// Index the right side by cell key, first match wins.
	rIndex := make(map[string]int, right.NumRows())
	var buf []byte
	for i := 0; i < right.NumRows(); i++ {
		if !rk.IsValid(i) {
			continue
		}
		buf = rk.appendKey(buf[:0], i)
		if _, seen := rIndex[string(buf)]; !seen {
			rIndex[string(buf)] = i
		}
	}
	var leftPos, rightPos []int // rightPos −1 = no match (left join)
	for i := 0; i < left.NumRows(); i++ {
		if !lk.IsValid(i) {
			if kind == LeftJoin {
				leftPos = append(leftPos, i)
				rightPos = append(rightPos, -1)
			}
			continue
		}
		buf = lk.appendKey(buf[:0], i)
		j, ok := rIndex[string(buf)]
		switch {
		case ok:
			leftPos = append(leftPos, i)
			rightPos = append(rightPos, j)
		case kind == LeftJoin:
			leftPos = append(leftPos, i)
			rightPos = append(rightPos, -1)
		}
	}
	out := New()
	for c := 0; c < left.NumCols(); c++ {
		if err := out.AddColumn(left.ColumnAt(c).Gather(leftPos)); err != nil {
			return nil, err
		}
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
		col := NewEmptySeries(name, rc.Kind(), len(leftPos))
		for i, rp := range rightPos {
			if rp < 0 || !rc.IsValid(rp) {
				continue
			}
			switch rc.Kind() {
			case Float:
				col.SetFloat(i, rc.Float(rp))
			case Int:
				col.SetInt(i, int64(rc.Float(rp)))
			case String:
				col.SetString(i, rc.StringAt(rp))
			case Bool:
				col.SetBool(i, rc.BoolAt(rp))
			}
		}
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Concat stacks frames vertically over the union of their columns; cells
// for columns a frame lacks become null (pandas pd.concat semantics).
func Concat(frames ...*Frame) (*Frame, error) {
	if len(frames) == 0 {
		return New(), nil
	}
	// Column order: first appearance across inputs.
	var names []string
	kinds := map[string]Kind{}
	for _, f := range frames {
		for c := 0; c < f.NumCols(); c++ {
			col := f.ColumnAt(c)
			if _, seen := kinds[col.Name()]; !seen {
				names = append(names, col.Name())
				kinds[col.Name()] = col.Kind()
			}
		}
	}
	total := 0
	for _, f := range frames {
		total += f.NumRows()
	}
	out := New()
	for _, name := range names {
		col := NewEmptySeries(name, kinds[name], total)
		row := 0
		for _, f := range frames {
			src, err := f.Column(name)
			if err != nil {
				row += f.NumRows()
				continue
			}
			for i := 0; i < src.Len(); i++ {
				if !src.IsValid(i) {
					row++
					continue
				}
				switch col.Kind() {
				case Float:
					col.SetFloat(row, src.Float(i))
				case Int:
					v := src.Float(i)
					col.SetInt(row, int64(v))
				case String:
					col.SetString(row, src.StringAt(i))
				case Bool:
					col.SetBool(row, src.BoolAt(i))
				}
				row++
			}
		}
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}
