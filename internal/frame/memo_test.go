package frame_test

import (
	"sync"
	"testing"

	"lucidscript/internal/frame"
)

func memoFrame(t *testing.T, vals ...int64) *frame.Frame {
	t.Helper()
	f, err := frame.FromSeries(frame.NewIntSeries("a", vals), frame.NewStringSeries("b", make([]string, len(vals))))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMemosFollowStructuralEdits checks that AddColumn and SetColumn drop
// the digest, the distinct count and the Jaccard memos of the edited frame,
// whichever side of a memoized pair it is on, and renew its identity.
func TestMemosFollowStructuralEdits(t *testing.T) {
	edits := map[string]func(*frame.Frame) error{
		"AddColumn": func(f *frame.Frame) error { return f.AddColumn(frame.NewIntSeries("c", []int64{7, 8, 9})) },
		"SetColumn": func(f *frame.Frame) error { return f.SetColumn(frame.NewIntSeries("a", []int64{4, 5, 6})) },
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			cand, ref := memoFrame(t, 1, 2, 3), memoFrame(t, 1, 2, 2)
			digest, id := cand.Digest(), cand.ID()
			cand.ValueSet()
			if n, ok := cand.DistinctCount(); !ok || n != 4 {
				t.Fatalf("DistinctCount = %d, %v after ValueSet; want 4, true", n, ok)
			}
			cand.StoreJaccard(ref, 0.5)
			if j, ok := cand.MemoJaccard(ref); !ok || j != 0.5 {
				t.Fatalf("MemoJaccard = %v, %v; want 0.5, true", j, ok)
			}

			if err := edit(cand); err != nil {
				t.Fatal(err)
			}
			if cand.ID() == id {
				t.Error("identity kept across a structural edit")
			}
			if got, want := cand.Digest(), cand.DeepClone().Digest(); got != want || got == digest {
				t.Errorf("digest after the edit %s, want %s (was %s)", got, want, digest)
			}
			if n, ok := cand.DistinctCount(); ok {
				t.Errorf("DistinctCount = %d survived the edit", n)
			}
			if j, ok := cand.MemoJaccard(ref); ok {
				t.Errorf("Jaccard memo %v survived an edit of the candidate", j)
			}

			cand.StoreJaccard(ref, 0.25)
			if err := edit(ref); err != nil {
				t.Fatal(err)
			}
			if j, ok := cand.MemoJaccard(ref); ok {
				t.Errorf("Jaccard memo %v survived an edit of the reference", j)
			}
		})
	}
}

// TestIdentityNeverReused checks that identities are unique across frames
// and across the renewals of one frame.
func TestIdentityNeverReused(t *testing.T) {
	seen := map[uint64]bool{}
	note := func(id uint64) {
		if seen[id] {
			t.Fatalf("identity %d handed out twice", id)
		}
		seen[id] = true
	}
	f := frame.New()
	for i := 0; i < 50; i++ {
		note(memoFrame(t, 1).ID())
		note(f.ID())
		if err := f.SetColumn(frame.NewIntSeries("a", []int64{int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemosConcurrent has goroutines digest one shared frame and read and
// write its Jaccard memos at once, as queue workers sharing cached frames
// do; run it under -race.
func TestMemosConcurrent(t *testing.T) {
	shared := memoFrame(t, 1, 2, 3, 4, 5)
	want := shared.DeepClone().Digest()
	refs := []*frame.Frame{memoFrame(t, 1), memoFrame(t, 2, 3), memoFrame(t, 9, 9)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if d := shared.Digest(); d != want {
					t.Errorf("digest %s, want %s", d, want)
					return
				}
				ref := refs[(g+i)%len(refs)]
				j, ok := shared.MemoJaccard(ref)
				if !ok {
					j = ref.ValueSet().Jaccard(shared.ValueSet())
					shared.StoreJaccard(ref, j)
				}
				if exact := ref.ValueSet().Jaccard(shared.ValueSet()); j != exact {
					t.Errorf("Jaccard %v, want %v", j, exact)
					return
				}
				if n, ok := shared.DistinctCount(); !ok || n != 6 {
					t.Errorf("DistinctCount = %d, %v; want 6, true", n, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
