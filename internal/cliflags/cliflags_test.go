package cliflags

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"lucidscript"
)

// parse registers both flag groups on a fresh set and parses args.
func parse(args ...string) (*Search, *Budgets, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s, b := RegisterSearch(fs), RegisterBudgets(fs)
	return s, b, fs.Parse(args)
}

func TestSearchOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want lucidscript.Options
	}{
		{"defaults", nil,
			lucidscript.Options{Measure: lucidscript.IntentJaccard, Seed: 1}},
		{"explicit zero tau", []string{"-measure", "model", "-target", "y", "-tau", "0"},
			lucidscript.Options{Measure: lucidscript.IntentModel, TargetColumn: "y", Tau: lucidscript.TauZero, Seed: 1}},
		{"every flag", []string{"-measure", "emd", "-tau", "0.25", "-seq", "4", "-beam", "2", "-auto", "-seed", "7"},
			lucidscript.Options{Measure: lucidscript.IntentEMD, Tau: 0.25, SeqLength: 4, BeamSize: 2, Auto: true, Seed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, err := parse(tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Options(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Options() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestBudgetsLimits(t *testing.T) {
	withCells := lucidscript.DefaultExecLimits()
	withCells.MaxCells = 1000
	withSteps := lucidscript.DefaultExecLimits()
	withSteps.MaxSteps = 5
	for _, tc := range []struct {
		name string
		args []string
		want *lucidscript.ExecLimits
	}{
		{"unset is governor off", nil, nil},
		{"zero is governor off", []string{"-max-cells", "0", "-max-steps", "0"}, nil},
		{"cells fills steps from defaults", []string{"-max-cells", "1000"}, withCells},
		{"steps fills cells from defaults", []string{"-max-steps", "5"}, withSteps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, b, err := parse(tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.Limits(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Limits() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestRejectedValues: each value fails flag parsing, which exits 2 on the
// command line.
func TestRejectedValues(t *testing.T) {
	for _, args := range [][]string{
		{"-tau", "-1"},
		{"-tau", "-0.5"},
		{"-tau", "NaN"},
		{"-tau", "x"},
		{"-max-cells", "-1"},
		{"-max-steps", "-3"},
		{"-max-steps", "1.5"},
		{"-seq", "-1"},
		{"-beam", "-3"},
	} {
		if _, _, err := parse(args...); err == nil {
			t.Errorf("%v parsed without error", args)
		}
	}
}
