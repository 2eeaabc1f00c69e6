package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// entries lists the file names in dir.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestWritePublishes: a successful Write leaves exactly the target, with
// the full content — replacing what was there — and no temp file.
func TestWritePublishes(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "snap")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("0123456789abcdef", 1<<17)
	if err := Write(dir, "snap", func(w io.Writer) error {
		_, err := io.WriteString(w, want)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("content: %d bytes, want %d", len(got), len(want))
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "snap" {
		t.Fatalf("directory holds %v, want only [snap]", names)
	}
}

// TestWriteCallbackFailure: when the write callback fails, its error comes
// back, the previous target content is untouched, and no temp file is left.
func TestWriteCallbackFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "snap")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(dir, "snap", func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial new content"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write error = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Fatalf("target = %q after a failed write, want %q", got, "old")
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "snap" {
		t.Fatalf("directory holds %v, want only [snap]", names)
	}
}
