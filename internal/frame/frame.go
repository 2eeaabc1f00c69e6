package frame

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
)

// Frame is an ordered collection of equal-length named series.
type Frame struct {
	cols  []*Series
	index map[string]int
	// m memoizes what is derived from the cells (see memo); nil until
	// first use.
	m atomic.Pointer[memo]
}

// New returns an empty frame.
func New() *Frame {
	return &Frame{index: map[string]int{}}
}

// FromSeries builds a frame from the given columns, which must share a length.
func FromSeries(cols ...*Series) (*Frame, error) {
	f := New()
	for _, c := range cols {
		if err := f.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// NumRows returns the row count (0 for an empty frame).
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the column count.
func (f *Frame) NumCols() int { return len(f.cols) }

// ColumnNames returns the column names in order.
func (f *Frame) ColumnNames() []string {
	names := make([]string, len(f.cols))
	for i, c := range f.cols {
		names[i] = c.name
	}
	return names
}

// HasColumn reports whether a column with the given name exists.
func (f *Frame) HasColumn(name string) bool {
	_, ok := f.index[name]
	return ok
}

// Column returns the named column.
func (f *Frame) Column(name string) (*Series, error) {
	i, ok := f.index[name]
	if !ok {
		return nil, fmt.Errorf("frame: no column %q", name)
	}
	return f.cols[i], nil
}

// ColumnAt returns the column at position i.
func (f *Frame) ColumnAt(i int) *Series { return f.cols[i] }

// AddColumn appends a column; its length must match existing columns.
func (f *Frame) AddColumn(s *Series) error {
	if len(f.cols) > 0 && s.Len() != f.NumRows() {
		return fmt.Errorf("frame: column %q has %d rows, frame has %d", s.name, s.Len(), f.NumRows())
	}
	if _, ok := f.index[s.name]; ok {
		return fmt.Errorf("frame: duplicate column %q", s.name)
	}
	f.index[s.name] = len(f.cols)
	f.cols = append(f.cols, s)
	f.dropMemo()
	return nil
}

// SetColumn adds the column or replaces an existing column of the same name.
func (f *Frame) SetColumn(s *Series) error {
	if i, ok := f.index[s.name]; ok {
		if s.Len() != f.NumRows() {
			return fmt.Errorf("frame: column %q has %d rows, frame has %d", s.name, s.Len(), f.NumRows())
		}
		f.cols[i] = s
		f.dropMemo()
		return nil
	}
	return f.AddColumn(s)
}

// WithColumn returns a new frame with the column set or appended, sharing
// every other column with the receiver. It is the functional counterpart of
// SetColumn: the receiver is not modified, so frames captured by forked
// interpreter environments (internal/interp's prefix cache) stay valid.
func (f *Frame) WithColumn(s *Series) (*Frame, error) {
	if len(f.cols) > 0 && s.Len() != f.NumRows() {
		return nil, fmt.Errorf("frame: column %q has %d rows, frame has %d", s.name, s.Len(), f.NumRows())
	}
	out := &Frame{
		cols:  make([]*Series, len(f.cols), len(f.cols)+1),
		index: make(map[string]int, len(f.index)+1),
	}
	copy(out.cols, f.cols)
	for name, i := range f.index {
		out.index[name] = i
	}
	if i, ok := out.index[s.name]; ok {
		out.cols[i] = s
	} else {
		out.index[s.name] = len(out.cols)
		out.cols = append(out.cols, s)
	}
	return out, nil
}

// Clone returns a copy of the frame that shares every column with the
// receiver. Sharing is safe under the engine's immutability contract
// (DESIGN.md §9): a *Series reachable from a frame is never written in
// place — operations that change cells allocate a fresh column first — so a
// shared column can never change under either frame. The copy owns its
// column slice and name index, so structural edits (AddColumn, SetColumn)
// on one frame never affect the other. Use DeepClone for an owned copy
// whose cells may be mutated.
func (f *Frame) Clone() *Frame {
	out := &Frame{
		cols:  append([]*Series(nil), f.cols...),
		index: make(map[string]int, len(f.index)),
	}
	for name, i := range f.index {
		out.index[name] = i
	}
	return out
}

// DeepClone returns a copy whose columns are themselves deep copies: the
// pre-structural-sharing Clone semantics, for callers that need to write
// cells into the result (and for tests that snapshot frame state).
func (f *Frame) DeepClone() *Frame {
	out := New()
	for _, c := range f.cols {
		_ = out.AddColumn(c.Clone())
	}
	return out
}

// Drop returns a copy without the named columns, sharing the kept columns
// with the receiver. Unknown names are an error.
func (f *Frame) Drop(names ...string) (*Frame, error) {
	dropSet := map[string]bool{}
	for _, n := range names {
		if !f.HasColumn(n) {
			return nil, fmt.Errorf("frame: cannot drop missing column %q", n)
		}
		dropSet[n] = true
	}
	out := New()
	for _, c := range f.cols {
		if !dropSet[c.name] {
			_ = out.AddColumn(c)
		}
	}
	return out, nil
}

// Select returns a copy with only the named columns, in the given order,
// sharing them with the receiver.
func (f *Frame) Select(names ...string) (*Frame, error) {
	out := New()
	for _, n := range names {
		c, err := f.Column(n)
		if err != nil {
			return nil, err
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RenameColumn returns a copy with column old renamed to new; every other
// column is shared with the receiver, and the renamed column shares its
// backing storage (Series.Rename is a shallow copy).
func (f *Frame) RenameColumn(old, new string) (*Frame, error) {
	if !f.HasColumn(old) {
		return nil, fmt.Errorf("frame: cannot rename missing column %q", old)
	}
	out := New()
	for _, c := range f.cols {
		if c.name == old {
			c = c.Rename(new)
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Filter returns the rows where the mask is true.
func (f *Frame) Filter(m Mask) (*Frame, error) {
	if len(m) != f.NumRows() {
		return nil, fmt.Errorf("frame: mask length %d != rows %d", len(m), f.NumRows())
	}
	p := getIdx(len(m))
	idx := *p
	for i, keep := range m {
		if keep {
			idx = append(idx, i)
		}
	}
	out := f.gather(idx)
	*p = idx
	putIdx(p)
	return out, nil
}

// Take returns a new frame holding the rows at the given positions, in order.
func (f *Frame) Take(idx []int) (*Frame, error) {
	rows := f.NumRows()
	for _, i := range idx {
		if i < 0 || i >= rows {
			return nil, fmt.Errorf("frame: take position %d out of range [0,%d)", i, rows)
		}
	}
	return f.gather(idx), nil
}

func (f *Frame) gather(idx []int) *Frame {
	out := New()
	for _, c := range f.cols {
		_ = out.AddColumn(c.Gather(idx))
	}
	return out
}

// Head returns the first n rows (all rows when n exceeds the row count).
func (f *Frame) Head(n int) *Frame {
	if n > f.NumRows() {
		n = f.NumRows()
	}
	p := getIdx(n)
	idx := (*p)[:n]
	for i := range idx {
		idx[i] = i
	}
	out := f.gather(idx)
	*p = idx
	putIdx(p)
	return out
}

// Sample returns n rows drawn without replacement using the given seed.
// When n exceeds the row count all rows are returned (shuffled).
func (f *Frame) Sample(n int, seed int64) *Frame {
	rows := f.NumRows()
	if n > rows {
		n = rows
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(rows)
	idx := perm[:n]
	sort.Ints(idx)
	return f.gather(idx)
}

// FillStat selects the per-column imputation statistic for FillNA.
type FillStat int

// Imputation statistics.
const (
	FillMean FillStat = iota
	FillMedian
	FillMode
	FillZero
)

// FillNA returns a copy where nulls in each column are replaced by the
// per-column statistic; untouched columns are shared with the receiver.
// Non-numeric columns use the mode regardless of stat (matching pandas'
// df.fillna(df.mean()) leaving strings untouched, we fill string columns
// only when stat is FillMode).
func (f *Frame) FillNA(stat FillStat) *Frame {
	out := New()
	for _, c := range f.cols {
		switch {
		case c.IsNumeric() || c.Kind() == Bool:
			var v float64
			switch stat {
			case FillMean:
				v = c.Mean()
			case FillMedian:
				v = c.Median()
			case FillMode:
				if m, ok := c.Mode(); ok {
					_ = out.AddColumn(c.FillNAString(m))
					continue
				}
				v = math.NaN()
			case FillZero:
				v = 0
			}
			if math.IsNaN(v) {
				_ = out.AddColumn(c)
			} else {
				_ = out.AddColumn(c.FillNAFloat(v))
			}
		case stat == FillMode:
			if m, ok := c.Mode(); ok {
				_ = out.AddColumn(c.FillNAString(m))
			} else {
				_ = out.AddColumn(c)
			}
		default:
			_ = out.AddColumn(c)
		}
	}
	return out
}

// GetDummies one-hot encodes every string column (pandas pd.get_dummies):
// each distinct value v of column C becomes an int column "C_v"; the source
// column is removed. Numeric and bool columns pass through shared with the
// receiver. Null rows get 0 in every dummy column.
func (f *Frame) GetDummies() *Frame {
	out := New()
	for _, c := range f.cols {
		if c.Kind() != String {
			_ = out.AddColumn(c)
			continue
		}
		for _, v := range c.Unique() {
			d := &Series{name: c.name + "_" + v, kind: Int,
				is: make([]int64, c.Len()), valid: make([]bool, c.Len())}
			for i, ok := range c.valid {
				d.valid[i] = true
				if ok && c.ss[i] == v {
					d.is[i] = 1
				}
			}
			_ = out.AddColumn(d)
		}
	}
	return out
}

// GroupAgg identifies the aggregate applied by GroupBy.
type GroupAgg int

// Aggregations supported by GroupBy.
const (
	AggMean GroupAgg = iota
	AggSum
	AggCount
)

// GroupBy groups rows by the key column and aggregates the value column.
// The result has two columns: the key (string rendering) and the aggregate.
func (f *Frame) GroupBy(key, value string, agg GroupAgg) (*Frame, error) {
	kc, err := f.Column(key)
	if err != nil {
		return nil, err
	}
	vc, err := f.Column(value)
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	var order []string
	for i := 0; i < f.NumRows(); i++ {
		if !kc.IsValid(i) {
			continue
		}
		k := kc.StringAt(i)
		if _, seen := counts[k]; !seen {
			order = append(order, k)
		}
		counts[k]++
		v := vc.Float(i)
		if !math.IsNaN(v) {
			sums[k] += v
		}
	}
	sort.Strings(order)
	keys := make([]string, len(order))
	vals := make([]float64, len(order))
	for i, k := range order {
		keys[i] = k
		switch agg {
		case AggMean:
			if counts[k] > 0 {
				vals[i] = sums[k] / float64(counts[k])
			}
		case AggSum:
			vals[i] = sums[k]
		case AggCount:
			vals[i] = float64(counts[k])
		}
	}
	return FromSeries(NewStringSeries(key, keys), NewFloatSeries(value, vals))
}

// Describe returns summary statistics of the numeric columns, one row per
// statistic (count, mean, std, min, 50%, max) with a leading "stat" column
// — a compact analogue of pandas df.describe().
func (f *Frame) Describe() *Frame {
	stats := []string{"count", "mean", "std", "min", "50%", "max"}
	out := New()
	_ = out.AddColumn(NewStringSeries("stat", stats))
	for _, c := range f.cols {
		if !c.IsNumeric() && c.Kind() != Bool {
			continue
		}
		vals := []float64{
			float64(c.Len() - c.NullCount()),
			c.Mean(), c.Std(), c.Min(), c.Median(), c.Max(),
		}
		_ = out.AddColumn(NewFloatSeries(c.name, vals))
	}
	return out
}

// sortedCols returns the columns ordered by name, the order RowKeys
// keys rows in.
func (f *Frame) sortedCols() []*Series {
	cols := make([]*Series, len(f.cols))
	copy(cols, f.cols)
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	return cols
}

// String renders a short preview of the frame (up to 10 rows) for debugging.
func (f *Frame) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Frame[%d rows x %d cols]\n", f.NumRows(), f.NumCols())
	b.WriteString(strings.Join(f.ColumnNames(), "\t"))
	b.WriteByte('\n')
	n := f.NumRows()
	if n > 10 {
		n = 10
	}
	for i := 0; i < n; i++ {
		cells := make([]string, len(f.cols))
		for j, c := range f.cols {
			if c.IsValid(i) {
				cells[j] = c.StringAt(i)
			} else {
				cells[j] = "NaN"
			}
		}
		b.WriteString(strings.Join(cells, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// NumericMatrix extracts all numeric and bool columns except those named in
// exclude, as a dense row-major matrix plus the used column names. Null cells
// become 0. It is the feature-extraction step before model training.
func (f *Frame) NumericMatrix(exclude ...string) ([][]float64, []string) {
	ex := map[string]bool{}
	for _, e := range exclude {
		ex[e] = true
	}
	var used []string
	var cols []*Series
	for _, c := range f.cols {
		if ex[c.name] {
			continue
		}
		if c.IsNumeric() || c.Kind() == Bool {
			used = append(used, c.name)
			cols = append(cols, c)
		}
	}
	m := make([][]float64, f.NumRows())
	for i := range m {
		row := make([]float64, len(cols))
		for j, c := range cols {
			v := c.Float(i)
			if math.IsNaN(v) {
				v = 0
			}
			row[j] = v
		}
		m[i] = row
	}
	return m, used
}
