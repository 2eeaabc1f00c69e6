// Package cliflags declares the command-line flags the lucidscript
// commands share and turns them into the values the library takes, so
// lsstd, lsserved and lsbench parse, default and reject them alike.
//
// Out-of-range values fail at flag parsing: on the default command line
// (flag.ExitOnError) that prints the error and the usage and exits 2.
package cliflags

import (
	"errors"
	"flag"
	"strconv"

	"lucidscript"
)

// Search holds the flags that set the search: the paper's Table 2
// parameters (-seq, -beam, or -auto), the intent measure and its threshold
// τ, and the seed.
type Search struct {
	measure, target string
	tau             float64
	tauSet          bool
	seq, beam       int
	auto            bool
	seed            int64
}

// RegisterSearch declares -measure -tau -target -seq -beam -auto -seed on
// fs.
func RegisterSearch(fs *flag.FlagSet) *Search {
	s := &Search{}
	fs.StringVar(&s.measure, "measure", "jaccard", "user-intent measure: jaccard, row-jaccard, emd or model (fairness needs a protected column, which no flag sets)")
	fs.Func("tau", "intent threshold, not negative; 0 is a literal zero (default 0.9 jaccard / 1% model)", func(v string) error {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		if !(t >= 0) { // NaN too
			return errors.New("must be >= 0")
		}
		s.tau, s.tauSet = t, true
		return nil
	})
	fs.StringVar(&s.target, "target", "", "label column (required for -measure model)")
	fs.Func("seq", "max transformations, not negative (default 16)", NonNegative(&s.seq))
	fs.Func("beam", "beam size, not negative (default 3)", NonNegative(&s.beam))
	fs.BoolVar(&s.auto, "auto", false, "derive seq/beam from corpus statistics (Table 2)")
	fs.Int64Var(&s.seed, "seed", 1, "random seed")
	return s
}

// Options returns the search flags as library options; the command fills
// in the rest. An unset -tau leaves Tau zero (the measure's default); an
// explicit -tau 0 becomes lucidscript.TauZero.
func (s *Search) Options() lucidscript.Options {
	tau := s.tau
	if s.tauSet && tau == 0 {
		tau = lucidscript.TauZero
	}
	return lucidscript.Options{
		SeqLength:    s.seq,
		BeamSize:     s.beam,
		Measure:      lucidscript.IntentMeasure(s.measure),
		Tau:          tau,
		TargetColumn: s.target,
		Auto:         s.auto,
		Seed:         s.seed,
	}
}

// Budgets holds -max-cells and -max-steps, the per-execution resource
// governor.
type Budgets struct {
	cells, steps int
}

// RegisterBudgets declares -max-cells and -max-steps on fs.
func RegisterBudgets(fs *flag.FlagSet) *Budgets {
	b := &Budgets{}
	fs.Func("max-cells", "cap rows*cols of any value a candidate materializes (0 = governor off; setting this or -max-steps enables default budgets for the rest)", NonNegative(&b.cells))
	fs.Func("max-steps", "cap statements per candidate execution (0 = governor off; setting this or -max-cells enables default budgets for the rest)", NonNegative(&b.steps))
	return b
}

// NonNegative returns a flag.Func parser that stores an int flag value in
// dst and rejects negatives.
func NonNegative(dst *int) func(string) error {
	return func(v string) error {
		n, err := strconv.ParseInt(v, 0, strconv.IntSize)
		if err != nil {
			return err
		}
		if n < 0 {
			return errors.New("must be >= 0")
		}
		*dst = int(n)
		return nil
	}
}

// Limits returns nil, the governor off, when neither budget is set.
// Otherwise it returns lucidscript.DefaultExecLimits with each set budget
// in its place.
func (b *Budgets) Limits() *lucidscript.ExecLimits {
	if b.cells == 0 && b.steps == 0 {
		return nil
	}
	limits := lucidscript.DefaultExecLimits()
	if b.cells > 0 {
		limits.MaxCells = b.cells
	}
	if b.steps > 0 {
		limits.MaxSteps = b.steps
	}
	return limits
}
