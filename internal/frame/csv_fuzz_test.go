package frame

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"testing"
)

// referenceWriteCSV is the encoding/csv serialization WriteCSV must match
// byte for byte: the header, then every cell as StringAt renders it, nulls
// empty.
func referenceWriteCSV(f *Frame, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, f.NumCols())
	for i := 0; i < f.NumRows(); i++ {
		for j, c := range f.cols {
			rec[j] = c.StringAt(i)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// checkWriters fails unless WriteCSV and the reference write the same bytes.
func checkWriters(t *testing.T, f *Frame) {
	t.Helper()
	var got, want bytes.Buffer
	if err := f.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteCSV(f, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV wrote\n%q\nencoding/csv writes\n%q", got.Bytes(), want.Bytes())
	}
}

// FuzzWriteCSV builds a frame with one column of each kind from the fuzzed
// values, with a null in each, and compares WriteCSV with encoding/csv.
func FuzzWriteCSV(f *testing.F) {
	f.Add("name", "plain", "", 1.5, int64(3), true)
	f.Add(" lead", "a,b", "say \"hi\"", math.Inf(-1), int64(-7), false)
	f.Add("\\.", "line\nbreak", "cr\rlf\r\n", math.Copysign(0, -1), int64(math.MinInt64), true)
	f.Add(" nbsp", "\tlead tab", "\\.", 1e21, int64(1e6), false)
	f.Fuzz(func(t *testing.T, name, s1, s2 string, x float64, n int64, b bool) {
		nullAt := func(s *Series) *Series {
			s.SetNull(2)
			return s
		}
		fr, err := FromSeries(
			nullAt(NewStringSeries(name, []string{s1, s2, ""})),
			nullAt(NewFloatSeries(name+"_f", []float64{x, -x, 0})),
			nullAt(NewIntSeries(name+"_i", []int64{n, -n, 0})),
			nullAt(NewBoolSeries(name+"_b", []bool{b, !b, false})),
		)
		if err != nil {
			t.Fatal(err)
		}
		checkWriters(t, fr)
	})
}

// FuzzReadCSV feeds arbitrary bytes to ReadCSV: it must return a frame or
// an error without panicking, and a frame it returns must serialize to the
// same bytes under WriteCSV and encoding/csv.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"a,b\n1,2\n",
		"x,y,z\n1.5,,true\n-2,\"q,\"\"uoted\"\"\",false\n",
		"name\n\" lead\"\n\"multi\nline\"\n",
		"h\r\n1\r\n\r\n2\r\n",
		"a,a\n1,2\n",
		"a,b\n1\n",
		"\"unterminated\n",
		"c\nNaN\n+Inf\n-0\n1e400\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkWriters(t, fr)
	})
}
