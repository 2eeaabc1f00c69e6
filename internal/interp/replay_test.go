package interp

import (
	"math/rand"
	"testing"
)

// TestReplaySourceForkContinuesStream checks that a source forked after n
// draws continues exactly like one that never forked, whether or not the
// parent had materialized its underlying source, and that forking leaves
// the parent's stream alone.
func TestReplaySourceForkContinuesStream(t *testing.T) {
	const seed, tail = 42, 50
	for _, n := range []int64{0, 1, 7, 1000} {
		ref := rand.NewSource(seed)
		parent := newReplaySource(seed)
		for i := int64(0); i < n; i++ {
			if got, want := parent.Int63(), ref.Int63(); got != want {
				t.Fatalf("n=%d: parent draw %d = %d, want %d", n, i, got, want)
			}
		}
		fork, twice := parent.fork(), parent.fork().fork()
		for i := 0; i < tail; i++ {
			want := ref.Int63()
			for name, src := range map[string]*replaySource{"fork": fork, "fork of a fork": twice, "parent": parent} {
				if got := src.Int63(); got != want {
					t.Fatalf("n=%d: %s draw %d after the fork = %d, want %d", n, name, i, got, want)
				}
			}
		}
	}
}

// TestReplaySourceSeed checks that reseeding restarts the stream.
func TestReplaySourceSeed(t *testing.T) {
	r := newReplaySource(1)
	r.Int63()
	r.Seed(9)
	ref := rand.NewSource(9)
	for i := 0; i < 5; i++ {
		if got, want := r.Int63(), ref.Int63(); got != want {
			t.Fatalf("draw %d after Seed = %d, want %d", i, got, want)
		}
	}
}

// BenchmarkEnvFork measures forking an environment whose run has drawn
// ten random numbers, as the session cache does on every miss.
func BenchmarkEnvFork(b *testing.B) {
	e := newEnv(nil, 1, nil, nil)
	for i := 0; i < 10; i++ {
		e.rng.Int63()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forkSink = e.fork()
	}
}

var forkSink *Env
