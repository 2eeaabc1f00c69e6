package frame

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ReadCSV parses CSV data with a header row into a frame, inferring column
// kinds: a column is Int if every non-empty cell parses as an integer,
// Float if every non-empty cell parses as a number, Bool if every non-empty
// cell is true/false, otherwise String. Empty cells become nulls.
func ReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("frame: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("frame: csv has no header row")
	}
	header := records[0]
	rows := records[1:]
	f := New()
	for j, name := range header {
		cells := make([]string, len(rows))
		for i, rec := range rows {
			if j < len(rec) {
				cells[i] = rec[j]
			}
		}
		if err := f.AddColumn(inferColumn(name, cells)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// ReadCSVFile opens and parses the named CSV file.
func ReadCSVFile(path string) (*Frame, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ReadCSV(fh)
}

// ReadCSVString parses CSV content held in a string.
func ReadCSVString(data string) (*Frame, error) {
	return ReadCSV(strings.NewReader(data))
}

func inferColumn(name string, cells []string) *Series {
	isInt, isFloat, isBool := true, true, true
	any := false
	for _, c := range cells {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		any = true
		if _, err := strconv.ParseInt(c, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(c, 64); err != nil {
			isFloat = false
		}
		lc := strings.ToLower(c)
		if lc != "true" && lc != "false" {
			isBool = false
		}
	}
	if !any {
		return NewEmptySeries(name, String, len(cells))
	}
	switch {
	case isInt:
		out := NewEmptySeries(name, Int, len(cells))
		for i, c := range cells {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			v, _ := strconv.ParseInt(c, 10, 64)
			out.SetInt(i, v)
		}
		// Keep ints as Int only when no nulls; otherwise promote to Float so
		// nulls are representable as NaN (mirrors pandas int→float promotion).
		if out.NullCount() > 0 {
			return out.AsType(Float)
		}
		return out
	case isFloat:
		vals := make([]float64, len(cells))
		for i, c := range cells {
			c = strings.TrimSpace(c)
			if c == "" {
				vals[i] = math.NaN()
				continue
			}
			vals[i], _ = strconv.ParseFloat(c, 64)
		}
		return NewFloatSeries(name, vals)
	case isBool:
		out := NewEmptySeries(name, Bool, len(cells))
		for i, c := range cells {
			c = strings.ToLower(strings.TrimSpace(c))
			if c == "" {
				continue
			}
			out.SetBool(i, c == "true")
		}
		return out
	default:
		out := NewEmptySeries(name, String, len(cells))
		for i, c := range cells {
			if strings.TrimSpace(c) == "" {
				continue
			}
			out.SetString(i, c)
		}
		return out
	}
}

// csvChunk is the encoder's flush threshold: rows are appended to one
// buffer that is handed to the writer whenever it grows past this size.
const csvChunk = 64 << 10

// WriteCSV serializes the frame as CSV with a header row, byte for byte as
// encoding/csv's Writer (comma, "\n" line ends) would write the StringAt
// rendering of every cell. Nulls are written as empty cells. Cells are
// appended to one buffer, flushed in chunks of about 64 KiB; only string
// cells and header names can need quoting, since numeric and bool
// renderings never start with a space or hold a comma, quote or newline.
func (f *Frame) WriteCSV(w io.Writer) error {
	buf := make([]byte, 0, csvChunk+csvChunk/8) // room for the row that crosses csvChunk
	for j, c := range f.cols {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, c.name)
	}
	buf = append(buf, '\n')
	for i := 0; i < f.NumRows(); i++ {
		for j, c := range f.cols {
			if j > 0 {
				buf = append(buf, ',')
			}
			if c.kind == String && c.valid[i] {
				buf = appendCSVField(buf, c.ss[i])
			} else {
				buf = c.appendCell(buf, i)
			}
		}
		buf = append(buf, '\n')
		if len(buf) >= csvChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendCSVField appends one field with encoding/csv's quoting rules: a
// field is quoted when it is `\.`, holds a comma, quote, CR or LF, or
// starts with a Unicode space; inside quotes a quote is doubled.
func appendCSVField(buf []byte, field string) []byte {
	if !csvNeedsQuotes(field) {
		return append(buf, field...)
	}
	buf = append(buf, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			break
		}
		buf = append(buf, field[:i+1]...)
		buf = append(buf, '"')
		field = field[i+1:]
	}
	buf = append(buf, field...)
	return append(buf, '"')
}

func csvNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case '\n', '\r', '"', ',':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// Digest returns the SHA-256 hex digest of the frame's CSV serialization
// (WriteCSV): the output hash lsstd prints and lsserved returns per job.
// It is computed once per frame and memoized.
func (f *Frame) Digest() string {
	m := f.memo()
	m.mu.Lock()
	d := m.digest
	m.mu.Unlock()
	if d != "" {
		return d
	}
	h := sha256.New()
	_ = f.WriteCSV(h) // a hash.Hash never returns a write error
	d = hex.EncodeToString(h.Sum(nil))
	m.mu.Lock()
	m.digest = d
	m.mu.Unlock()
	return d
}

// WriteCSVFile serializes the frame to the named file.
func (f *Frame) WriteCSVFile(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return f.WriteCSV(fh)
}

// CSVString serializes the frame to a CSV string (for tests and fixtures).
func (f *Frame) CSVString() string {
	var b strings.Builder
	_ = f.WriteCSV(&b)
	return b.String()
}
