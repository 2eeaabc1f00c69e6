package lucidscript

import (
	"context"

	"lucidscript/internal/core"
	"lucidscript/internal/dag"
)

// Lemmatize returns the canonical (lemmatized) form of a script: module
// aliases become pd/np and dataframe variables adopt canonical names, so
// syntactically different but semantically equivalent scripts compare equal.
func Lemmatize(sc *Script) *Script { return dag.Lemmatize(sc) }

// ErrNoOutput reports that a script executed successfully but produced no
// output table, so there is nothing to hash.
var ErrNoOutput = core.ErrNoOutput

// OutputHash executes the script against the System's full (unsampled)
// sources and returns the SHA-256 hex digest of the output table's CSV
// serialization: the digest a Result carries as Result.OutputHash. It is
// for scripts that are not a Result's, such as an independent oracle
// re-checking a served result.
func (s *System) OutputHash(sc *Script) (string, error) {
	return s.OutputHashContext(context.Background(), sc)
}

// OutputHashContext is OutputHash under a context (the execution honors
// cancellation at statement granularity).
func (s *System) OutputHashContext(ctx context.Context, sc *Script) (string, error) {
	return s.std.OutputDigest(ctx, sc)
}
