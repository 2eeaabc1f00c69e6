package lucidscript

import (
	"context"
	"errors"

	"lucidscript/internal/dag"
)

// Lemmatize returns the canonical (lemmatized) form of a script: module
// aliases become pd/np and dataframe variables adopt canonical names, so
// syntactically different but semantically equivalent scripts compare equal.
func Lemmatize(sc *Script) *Script { return dag.Lemmatize(sc) }

// ErrNoOutput reports that a script executed successfully but produced no
// output table, so there is nothing to hash.
var ErrNoOutput = errors.New("lucidscript: script produced no output table")

// OutputHash executes the script against the System's full (unsampled)
// sources and returns the SHA-256 hex digest of the output table's CSV
// serialization. Because the digest covers the materialized table — not
// the script text — it is the cheap way to confirm that two standardized
// scripts are output-equivalent: lsstd prints it, the HTTP service returns
// it per job, and the e2e tests compare the two. A Result whose search
// verified its output on the full sources already carries this digest as
// Result.OutputHash; this re-execution is for every other script.
func (s *System) OutputHash(sc *Script) (string, error) {
	return s.OutputHashContext(context.Background(), sc)
}

// OutputHashContext is OutputHash under a context (the execution honors
// cancellation at statement granularity).
func (s *System) OutputHashContext(ctx context.Context, sc *Script) (string, error) {
	out, err := s.std.RunOutput(ctx, sc)
	if err != nil {
		return "", err
	}
	if out == nil {
		return "", ErrNoOutput
	}
	return out.Digest(), nil
}
