package frame

import (
	"cmp"
	"fmt"
	"math"
)

// Mask is a boolean row selector produced by comparison operations.
type Mask []bool

// And returns the element-wise conjunction of two masks.
func (m Mask) And(o Mask) Mask {
	out := make(Mask, len(m))
	for i := range m {
		out[i] = m[i] && o[i]
	}
	return out
}

// AndInPlace folds o into m element-wise and returns m. The receiver must
// be owned by the caller (a freshly computed temporary): masks that may be
// aliased — e.g. bound to an interpreter variable — must use And, which
// allocates. The interpreter proves ownership syntactically (a mask produced
// by a non-identifier expression has no other holder) before choosing the
// in-place form, so chained filters combine without one allocation per
// combinator.
func (m Mask) AndInPlace(o Mask) Mask {
	for i := range m {
		m[i] = m[i] && o[i]
	}
	return m
}

// Or returns the element-wise disjunction of two masks.
func (m Mask) Or(o Mask) Mask {
	out := make(Mask, len(m))
	for i := range m {
		out[i] = m[i] || o[i]
	}
	return out
}

// OrInPlace folds o into m element-wise and returns m. See AndInPlace for
// the ownership requirement.
func (m Mask) OrInPlace(o Mask) Mask {
	for i := range m {
		m[i] = m[i] || o[i]
	}
	return m
}

// Not returns the element-wise negation of the mask.
func (m Mask) Not() Mask {
	out := make(Mask, len(m))
	for i := range m {
		out[i] = !m[i]
	}
	return out
}

// NotInPlace negates the mask in place and returns it. See AndInPlace for
// the ownership requirement.
func (m Mask) NotInPlace() Mask {
	for i := range m {
		m[i] = !m[i]
	}
	return m
}

// Count returns the number of true entries.
func (m Mask) Count() int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// CmpOp identifies a scalar comparison operator.
type CmpOp int

// The comparison operators supported by Series.Compare.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

// String renders the operator in source form.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "=="
	case Ne:
		return "!="
	}
	return "?"
}

// Compare evaluates `series op value` row-wise and returns the mask.
// Numeric series compare numerically; string series compare for Eq/Ne
// against the string rendering and lexicographically otherwise.
// Null rows always yield false. The numeric and string paths run as
// kind-specialized loops over the backing slices — comparisons seed every
// filter a beam-search candidate executes, so the per-row kind dispatch of
// Series.Float is hoisted out of the inner loop.
func (s *Series) Compare(op CmpOp, value interface{}) (Mask, error) {
	out := make(Mask, s.Len())
	switch v := value.(type) {
	case float64:
		switch s.kind {
		case Float:
			for i, f := range s.fs {
				if s.valid[i] && !math.IsNaN(f) {
					out[i] = Cmp(op, f, v)
				}
			}
		case Int:
			for i, n := range s.is {
				if s.valid[i] {
					out[i] = Cmp(op, float64(n), v)
				}
			}
		case Bool:
			for i, b := range s.bs {
				if s.valid[i] {
					f := 0.0
					if b {
						f = 1
					}
					out[i] = Cmp(op, f, v)
				}
			}
		default:
			for i := 0; i < s.Len(); i++ {
				if !s.valid[i] {
					continue
				}
				f := s.Float(i)
				if math.IsNaN(f) {
					continue
				}
				out[i] = Cmp(op, f, v)
			}
		}
		return out, nil
	case int:
		return s.Compare(op, float64(v))
	case int64:
		return s.Compare(op, float64(v))
	case string:
		if s.kind == String {
			for i, sv := range s.ss {
				if s.valid[i] {
					out[i] = Cmp(op, sv, v)
				}
			}
			return out, nil
		}
		for i := 0; i < s.Len(); i++ {
			if !s.valid[i] {
				continue
			}
			out[i] = Cmp(op, s.StringAt(i), v)
		}
		return out, nil
	case bool:
		for i := 0; i < s.Len(); i++ {
			if !s.valid[i] {
				continue
			}
			b := s.BoolAt(i)
			switch op {
			case Eq:
				out[i] = b == v
			case Ne:
				out[i] = b != v
			default:
				return nil, fmt.Errorf("frame: operator %v not supported for bool comparison", op)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("frame: unsupported comparison value type %T", value)
	}
}

// Cmp evaluates `a op b`, the one comparison kernel behind every series
// and scalar comparison (a NaN operand compares false except under Ne).
func Cmp[T cmp.Ordered](op CmpOp, a, b T) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case Eq:
		return a == b
	case Ne:
		return a != b
	}
	return false
}

// CompareSeries evaluates `s op o` row-wise. A row where either side is
// null yields false; when both series are numeric the rows compare as
// floats, otherwise they compare by their renderings (StringAt).
func (s *Series) CompareSeries(op CmpOp, o *Series) (Mask, error) {
	if s.Len() != o.Len() {
		return nil, fmt.Errorf("frame: series length mismatch %d vs %d", s.Len(), o.Len())
	}
	out := make(Mask, s.Len())
	numeric := s.IsNumeric() && o.IsNumeric()
	for i := range out {
		if !s.valid[i] || !o.valid[i] {
			continue
		}
		if numeric {
			out[i] = Cmp(op, s.Float(i), o.Float(i))
		} else {
			out[i] = Cmp(op, s.StringAt(i), o.StringAt(i))
		}
	}
	return out, nil
}

// Between returns the mask of rows whose numeric value lies in [lo, hi].
// Null and non-numeric rows yield false.
func (s *Series) Between(lo, hi float64) Mask {
	out := make(Mask, s.Len())
	for i := 0; i < s.Len(); i++ {
		if !s.valid[i] {
			continue
		}
		v := s.Float(i)
		if math.IsNaN(v) {
			continue
		}
		out[i] = v >= lo && v <= hi
	}
	return out
}

// IsIn returns the mask of rows whose string rendering appears in vals.
func (s *Series) IsIn(vals []string) Mask {
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	out := make(Mask, s.Len())
	for i := 0; i < s.Len(); i++ {
		if s.valid[i] && set[s.StringAt(i)] {
			out[i] = true
		}
	}
	return out
}

// IsNull returns the mask of null rows.
func (s *Series) IsNull() Mask {
	out := make(Mask, s.Len())
	for i := range out {
		out[i] = !s.valid[i]
	}
	return out
}

// NotNull returns the mask of non-null rows in a single pass (it used to be
// IsNull().Not(), one allocation and one traversal more).
func (s *Series) NotNull() Mask {
	out := make(Mask, s.Len())
	copy(out, s.valid)
	return out
}

// ArithOp identifies an element-wise arithmetic operator.
type ArithOp int

// The arithmetic operators supported by Arith and ArithScalar.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String renders the operator in source form.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

func applyArith(op ArithOp, a, b float64) float64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return math.NaN()
		}
		return a / b
	}
	return math.NaN()
}

// Arith returns the element-wise result of `s op o` as a float series.
// Rows where either operand is null or non-numeric become null.
func (s *Series) Arith(op ArithOp, o *Series) (*Series, error) {
	if s.Len() != o.Len() {
		return nil, fmt.Errorf("frame: series length mismatch %d vs %d", s.Len(), o.Len())
	}
	if s.kind == String && op == Add && o.kind == String {
		out := NewEmptySeries(s.name, String, s.Len())
		for i := 0; i < s.Len(); i++ {
			if s.valid[i] && o.valid[i] {
				out.SetString(i, s.ss[i]+o.ss[i])
			}
		}
		return out, nil
	}
	vals := make([]float64, s.Len())
	for i := range vals {
		vals[i] = applyArith(op, s.Float(i), o.Float(i))
	}
	return NewFloatSeries(s.name, vals), nil
}

// ArithScalar returns the element-wise result of `s op v` as a float series.
func (s *Series) ArithScalar(op ArithOp, v float64) *Series {
	vals := make([]float64, s.Len())
	for i := range vals {
		vals[i] = applyArith(op, s.Float(i), v)
	}
	return NewFloatSeries(s.name, vals)
}

// Log1p returns log(1+x) applied element-wise; non-positive 1+x yields null.
func (s *Series) Log1p() *Series {
	vals := make([]float64, s.Len())
	for i := range vals {
		v := s.Float(i)
		if math.IsNaN(v) || v <= -1 {
			vals[i] = math.NaN()
			continue
		}
		vals[i] = math.Log1p(v)
	}
	return NewFloatSeries(s.name, vals)
}

// Abs returns the element-wise absolute value.
func (s *Series) Abs() *Series {
	vals := make([]float64, s.Len())
	for i := range vals {
		vals[i] = math.Abs(s.Float(i))
	}
	return NewFloatSeries(s.name, vals)
}

// Round returns the element-wise rounding to the nearest integer.
func (s *Series) Round() *Series {
	vals := make([]float64, s.Len())
	for i := range vals {
		vals[i] = math.Round(s.Float(i))
	}
	return NewFloatSeries(s.name, vals)
}

// Clip returns a copy with numeric values clamped to [lo, hi].
func (s *Series) Clip(lo, hi float64) *Series {
	vals := make([]float64, s.Len())
	for i := range vals {
		v := s.Float(i)
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		vals[i] = v
	}
	return NewFloatSeries(s.name, vals)
}
