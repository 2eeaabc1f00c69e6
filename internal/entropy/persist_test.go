package entropy

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lucidscript/internal/dag"
	"lucidscript/internal/script"
)

func TestVocabEncodeDecodeRoundTrip(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	var buf bytes.Buffer
	if err := v.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	v2, err := DecodeVocab(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v2.NumScripts != v.NumScripts || v2.TotalEdges != v.TotalEdges {
		t.Fatalf("totals differ: %+v vs %+v", v2, v)
	}
	if len(v2.EdgeCounts) != len(v.EdgeCounts) || len(v2.Lines) != len(v.Lines) {
		t.Fatal("vocabulary sizes differ")
	}
	// RE computed against the decoded vocabulary matches exactly.
	g := dag.Build(script.MustParse(s2))
	if math.Abs(v.RE(g)-v2.RE(g)) > 1e-12 {
		t.Fatalf("RE differs: %v vs %v", v.RE(g), v2.RE(g))
	}
	// Stored atoms are directly insertable (they carry parsed statements).
	for key, li := range v2.Lines {
		if li.Stmt == nil || li.Key != key {
			t.Fatalf("decoded atom broken: %q", key)
		}
	}
	// MeanPos preserved.
	for k, p := range v.MeanPos {
		if math.Abs(v2.MeanPos[k]-p) > 1e-12 {
			t.Fatalf("MeanPos[%q] differs", k)
		}
	}
}

func TestDecodeVocabErrors(t *testing.T) {
	if _, err := DecodeVocab(strings.NewReader("{broken")); err == nil {
		t.Fatal("broken JSON should error")
	}
	if _, err := DecodeVocab(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("unknown version should error")
	}
	if _, err := DecodeVocab(strings.NewReader(`{"version": 1, "lines": {"x": "df = ???"}}`)); err == nil {
		t.Fatal("unparseable stored atom should error")
	}
	if _, err := DecodeVocab(strings.NewReader(`{"version": 1, "lines": {"x": "df = df.dropna()"}}`)); err == nil {
		t.Fatal("key mismatch should error")
	}
}

func TestDecodeVocabEmptyMaps(t *testing.T) {
	v, err := DecodeVocab(strings.NewReader(`{"version": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if v.EdgeCounts == nil || v.LineCounts == nil || v.UnigramCounts == nil || v.MeanPos == nil {
		t.Fatal("decoded maps must be non-nil")
	}
	lines := []dag.LineInfo{{Key: "a", Writes: []string{"x"}}, {Key: "b", Reads: []string{"x"}}}
	if got := v.RELines(lines); math.IsNaN(got) {
		t.Fatal("empty vocab should still score")
	}
}
