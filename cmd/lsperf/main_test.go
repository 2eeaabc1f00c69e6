package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lucidscript/internal/bench/e2e"
)

// fakeChildEnv makes the test binary, started by runChild as its child
// lsperf, act out one way a child can end instead of running the tests.
const fakeChildEnv = "LSPERF_FAKE_CHILD"

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeChildEnv); mode != "" {
		os.Exit(fakeChild(mode, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// fakeChild ends the way mode names: "fail" writes nothing and exits 1,
// "invalid" writes an invalid result and exits 1, "valid" writes a valid
// one and exits 0, and "lie" writes a valid one but exits 1.
func fakeChild(mode string, args []string) int {
	var out string
	for i := 0; i+1 < len(args); i++ {
		if args[i] == "-json" {
			out = args[i+1]
		}
	}
	res := &e2e.Result{Workload: "serve-small", Correct: true, Attempted: 1, Metrics: map[string]e2e.Value{}}
	code := 0
	switch mode {
	case "fail":
		return 1
	case "invalid":
		res.Invalid, code = "the generator ran late", 1
	case "lie":
		code = 1
	}
	b, err := json.Marshal(e2e.RunFile{Results: []*e2e.Result{res}})
	if err != nil || os.WriteFile(out, b, 0o644) != nil {
		return 3
	}
	return code
}

// writeStale leaves a valid result from an earlier invocation in the work
// directory.
func writeStale(t *testing.T, dir string) {
	t.Helper()
	b, err := json.Marshal(e2e.RunFile{Results: []*e2e.Result{{Workload: "serve-small", Correct: true, Attempted: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "serve-small.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunChildOutcomes(t *testing.T) {
	for _, tc := range []struct {
		mode        string
		wantErr     bool
		wantInvalid bool
	}{
		{"fail", true, false},
		{"lie", true, false},
		{"invalid", false, true},
		{"valid", false, false},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			t.Setenv(fakeChildEnv, tc.mode)
			dir := t.TempDir()
			writeStale(t, dir)
			res, err := runChild(context.Background(), "serve-small", e2e.Config{Seed: 1, Seconds: 1, WorkDir: dir, BinDir: dir})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("got result %+v, want an error", res)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted != 1 {
				t.Errorf("read the stale result (attempted %d), want the child's", res.Attempted)
			}
			if (res.Invalid != "") != tc.wantInvalid {
				t.Errorf("invalid %q, want invalid %v", res.Invalid, tc.wantInvalid)
			}
		})
	}
}
