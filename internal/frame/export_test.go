package frame

import (
	"math"
	"strconv"
)

// Renderings returns the set's values as the strings they stand for, the
// form the StringAt definition of the set uses.
func (vs *ValueSet) Renderings() map[string]struct{} {
	out := map[string]struct{}{}
	for b := range vs.nums {
		out[strconv.FormatFloat(math.Float64frombits(b), 'g', -1, 64)] = struct{}{}
	}
	for v := range vs.ints {
		out[strconv.FormatInt(v, 10)] = struct{}{}
	}
	for s := range vs.strs {
		out[s] = struct{}{}
	}
	for flag, s := range map[uint8]string{flagNull: nullValue, flagNaN: "NaN", flagFalse: "false", flagTrue: "true"} {
		if vs.flags&flag != 0 {
			out[s] = struct{}{}
		}
	}
	return out
}

// FloatBitsSeries builds a float series whose cells hold the given bit
// patterns, all valid: the only way to get a non-null NaN cell.
func FloatBitsSeries(name string, cells ...uint64) *Series {
	s := NewFloatSeries(name, make([]float64, len(cells)))
	for i, b := range cells {
		s.fs[i] = math.Float64frombits(b)
	}
	return s
}

// ID returns the frame's identity: equal for two calls on one frame with
// no structural edit between them, and never equal to any other frame's
// identity, past or present.
func (f *Frame) ID() uint64 { return f.memo().id }
