package frame

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// nullValue is the value every null cell contributes to a ValueSet.
const nullValue = "<null>"

// ValueSet is the set of distinct cell values of a frame, a value being a
// cell as StringAt renders it and "<null>" for a null cell: the set the
// Δ_J intent measure compares (the paper's Example 2.1). It is keyed on
// typed values (see cellKey), so building one renders no cell.
type ValueSet struct {
	nums  map[uint64]struct{}
	ints  map[int64]struct{}
	strs  map[string]struct{}
	flags uint8
}

const (
	flagNull uint8 = 1 << iota
	flagNaN
	flagFalse
	flagTrue
)

// intFloatLimit bounds the ints keyed as floats: every float of magnitude
// 1e6 or more renders with an exponent, every smaller integral float as
// plain digits.
const intFloatLimit = 1e6

// keyKind is the class of a cellKey.
type keyKind uint8

const (
	keyFlag keyKind = iota // null, NaN, false or true: bits holds its flag
	keyNum                 // a float, or an int below 1e6: bits holds the float's bits
	keyInt                 // an int of magnitude 1e6 or more: bits holds it
	keyStr                 // any other string, keyed as itself
)

// cellKey is the one identity of a cell, shared by value sets, row keys and
// merge keys:
//
//   - a float is its bits, every NaN one value;
//   - an int below 1e6 in magnitude is the bits of the equal float, since
//     both render as the same digits; a larger int renders unlike any float
//     (those print with an exponent) and is keyed as itself;
//   - a bool, NaN and null are flags;
//   - a string that is exactly the rendering of a float, int, bool, NaN or
//     null is keyed as that value; any other string is itself.
//
// So two cells are one value exactly when their renderings are equal:
// Int 3, Float 3 and String "3" are one value, Float -0 ("-0") and 0 are
// two, Bool true and String "true" are one.
type cellKey struct {
	kind keyKind
	bits uint64
}

func floatKey(v float64) cellKey {
	if math.IsNaN(v) {
		return cellKey{keyFlag, uint64(flagNaN)}
	}
	return cellKey{keyNum, math.Float64bits(v)}
}

func intKey(v int64) cellKey {
	if -intFloatLimit < v && v < intFloatLimit {
		return cellKey{keyNum, math.Float64bits(float64(v))}
	}
	return cellKey{keyInt, uint64(v)}
}

func boolKey(v bool) cellKey {
	if v {
		return cellKey{keyFlag, uint64(flagTrue)}
	}
	return cellKey{keyFlag, uint64(flagFalse)}
}

// stringKey keys s as the value it is the exact rendering of, if any. A
// string shaped like a number is parsed, and the parse confirmed by
// rendering the parsed value back, so "1.0" or "1e6" stay strings.
func stringKey(s string) cellKey {
	switch {
	case numberShaped(s):
		var buf [32]byte
		if v, err := strconv.ParseFloat(s, 64); err == nil && string(strconv.AppendFloat(buf[:0], v, 'g', -1, 64)) == s {
			return floatKey(v)
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && string(strconv.AppendInt(buf[:0], v, 10)) == s {
			return intKey(v)
		}
	case s == "NaN":
		return cellKey{keyFlag, uint64(flagNaN)}
	case s == "true":
		return boolKey(true)
	case s == "false":
		return boolKey(false)
	case s == nullValue:
		return cellKey{keyFlag, uint64(flagNull)}
	}
	return cellKey{kind: keyStr}
}

// appendKey appends the key of cell i to buf. The encoding is prefix-free,
// so the keys of a row's cells appended one after another identify the
// row, and two cells append equal bytes exactly when their cellKeys are
// equal: one tag byte, then a flag byte, eight bytes of bits, or a string's
// varint length and bytes.
func (s *Series) appendKey(buf []byte, i int) []byte {
	k := cellKey{keyFlag, uint64(flagNull)}
	if s.valid[i] {
		switch s.kind {
		case Float:
			k = floatKey(s.fs[i])
		case Int:
			k = intKey(s.is[i])
		case Bool:
			k = boolKey(s.bs[i])
		case String:
			k = stringKey(s.ss[i])
		}
	}
	buf = append(buf, byte(k.kind))
	switch k.kind {
	case keyFlag:
		return append(buf, byte(k.bits))
	case keyStr:
		buf = binary.AppendUvarint(buf, uint64(len(s.ss[i])))
		return append(buf, s.ss[i]...)
	}
	return binary.LittleEndian.AppendUint64(buf, k.bits)
}

// RowKeys returns one opaque key per row over the columns in sorted-name
// order: two rows of frames with the same column names have one key
// exactly when each column's two cells are one value, so scripts that
// merely reorder columns compare equal.
func (f *Frame) RowKeys() []string {
	cols := f.sortedCols()
	out := make([]string, f.NumRows())
	var buf []byte
	for i := range out {
		buf = buf[:0]
		for _, c := range cols {
			buf = c.appendKey(buf, i)
		}
		out[i] = string(buf)
	}
	return out
}

// Duplicated marks every row whose key (RowKeys) an earlier row has, as
// pandas' duplicated(keep="first") does.
func (f *Frame) Duplicated() Mask {
	seen := make(map[string]struct{}, f.NumRows())
	m := make(Mask, f.NumRows())
	for i, k := range f.RowKeys() {
		_, m[i] = seen[k]
		seen[k] = struct{}{}
	}
	return m
}

// ValueSet collects the frame's distinct cell values. The set itself is
// not kept, its size is: DistinctCount reports it from then on.
func (f *Frame) ValueSet() *ValueSet {
	vs := &ValueSet{nums: map[uint64]struct{}{}, ints: map[int64]struct{}{}, strs: map[string]struct{}{}}
	for _, c := range f.cols {
		vs.addSeries(c)
	}
	m := f.memo()
	m.mu.Lock()
	m.distinct = vs.Len()
	m.mu.Unlock()
	return vs
}

// addSeries adds every cell of s. A cell equal to the previous valid cell
// of its column skips the map: runs of one value, such as a dummy column's
// zeros, are the common case.
func (vs *ValueSet) addSeries(s *Series) {
	if s.hasNulls() {
		vs.flags |= flagNull
	}
	first := true
	switch s.kind {
	case Float:
		var prev uint64
		for i, v := range s.fs {
			if b := math.Float64bits(v); s.valid[i] && (first || b != prev) {
				first, prev = false, b
				vs.add(floatKey(v), "")
			}
		}
	case Int:
		var prev int64
		for i, v := range s.is {
			if s.valid[i] && (first || v != prev) {
				first, prev = false, v
				vs.add(intKey(v), "")
			}
		}
	case Bool:
		for i, v := range s.bs {
			if s.valid[i] {
				vs.add(boolKey(v), "")
			}
		}
	case String:
		var prev string
		for i, v := range s.ss {
			if s.valid[i] && (first || v != prev) {
				first, prev = false, v
				vs.add(stringKey(v), v)
			}
		}
	}
}

// add adds the value keyed k; s is the cell's string when k is a keyStr.
func (vs *ValueSet) add(k cellKey, s string) {
	switch k.kind {
	case keyFlag:
		vs.flags |= uint8(k.bits)
	case keyNum:
		vs.nums[k.bits] = struct{}{}
	case keyInt:
		vs.ints[int64(k.bits)] = struct{}{}
	default:
		vs.strs[s] = struct{}{}
	}
}

// numberShaped reports whether s has the shape of a rendered int or float:
// "+Inf", "-Inf", or -?D+(.D+)?(e[+-]D+)? with D a decimal digit. Checking
// the shape first keeps strings such as dates away from the parsers, whose
// failures allocate.
func numberShaped(s string) bool {
	if s == "+Inf" || s == "-Inf" {
		return true
	}
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	digits := func() bool {
		start := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		return i > start
	}
	if !digits() {
		return false
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(s) && s[i] == 'e' {
		i++
		if i == len(s) || (s[i] != '+' && s[i] != '-') {
			return false
		}
		i++
		if !digits() {
			return false
		}
	}
	return i == len(s)
}

// Len returns the number of distinct values.
func (vs *ValueSet) Len() int {
	return len(vs.nums) + len(vs.ints) + len(vs.strs) + bits.OnesCount8(vs.flags)
}

// Jaccard returns |vs ∩ o| / |vs ∪ o|, or 1 when both sets are empty.
func (vs *ValueSet) Jaccard(o *ValueSet) float64 {
	inter := intersect(vs.nums, o.nums) + intersect(vs.ints, o.ints) +
		intersect(vs.strs, o.strs) + bits.OnesCount8(vs.flags&o.flags)
	union := vs.Len() + o.Len() - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// intersect counts the keys a and b share, walking the smaller map.
func intersect[K comparable](a, b map[K]struct{}) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}
