package e2e

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "loadgen.job", Start: at(0), End: at(100)},
		// Two overlapping children count once: [10, 40) covers 30 ms.
		{ID: 2, Parent: 1, Name: "serve.submit", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "serve.poll", Start: at(20), End: at(40)},
		// A child reaching past its parent counts only inside: [90, 100).
		{ID: 4, Parent: 1, Name: "serve.poll", Start: at(90), End: at(120)},
		// A grandchild takes its share from its own parent only.
		{ID: 5, Parent: 2, Name: "replica.submit", Start: at(12), End: at(27)},
	}
	self := SelfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 60 * time.Millisecond,
		2: 5 * time.Millisecond,
		3: 20 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 15 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("span %d: self time %v, want %v", id, self[id], want)
		}
	}
	layers := LayerSelfMS(spans, 2)
	for layer, want := range map[string]float64{"loadgen": 30, "serve": 27.5, "replica": 7.5} {
		if !near(layers[layer], want) {
			t.Errorf("layer %s: %v ms per job, want %v", layer, layers[layer], want)
		}
	}
}

func TestLinkByKey(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "router.submit", Key: "job-1", Start: at(0), End: at(10)},
		// A retried submit of the same job: the proxied call inside it must
		// link to the retry, not the first attempt.
		{ID: 2, Name: "router.submit", Key: "job-1", Start: at(20), End: at(30)},
		{ID: 3, Name: "replica.submit", Key: "job-1", Start: at(22), End: at(28)},
		// A proxied call no routed call contains stays a root.
		{ID: 4, Name: "replica.poll", Key: "r1.j-1", Start: at(40), End: at(41)},
		{ID: 5, Name: "router.poll", Key: "r1.j-1", Start: at(50), End: at(60)},
	}
	LinkByKey(spans)
	want := map[int64]int64{1: 0, 2: 0, 3: 2, 4: 0, 5: 0}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d: parent %d, want %d", s.ID, s.Parent, want[s.ID])
		}
	}
	if self := SelfTimes(spans); self[2] != 4*time.Millisecond {
		t.Errorf("router self time of the retried submit = %v, want 4ms", self[2])
	}
}
