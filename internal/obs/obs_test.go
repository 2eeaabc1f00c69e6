package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWriterTracerLineFormat(t *testing.T) {
	var b strings.Builder
	tr := NewWriterTracer(&b)
	tr.Emit(Event{Kind: EvStepDone, Phase: PhaseExtend, Elapsed: 1500 * time.Microsecond, Step: 2, N: 5, Dur: time.Millisecond})
	tr.Emit(Event{Kind: EvCandidatePruned, Phase: PhaseCheck, Err: "boom"})
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "step_done") || !strings.Contains(lines[0], "step=2") || !strings.Contains(lines[0], "n=5") {
		t.Errorf("step_done line: %q", lines[0])
	}
	if !strings.Contains(lines[1], `err="boom"`) {
		t.Errorf("pruned line: %q", lines[1])
	}
}

func TestCollectTracerConcurrent(t *testing.T) {
	tr := NewCollectTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Emit(Event{Kind: EvCandidateExecuted})
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Events()); n != 800 {
		t.Fatalf("collected %d events, want 800", n)
	}
}

func TestMetricsCountersAndPrometheus(t *testing.T) {
	m := NewMetrics()
	c := m.Counter(MCacheHits)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if v := m.Value(MCacheHits); v != 8000 {
		t.Fatalf("hits = %d, want 8000", v)
	}
	m.Add(MSearches, 2)
	m.Counter(MPhaseTotalNanos).AddDuration(3 * time.Second)
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lucidscript_exec_cache_hits_total counter",
		"lucidscript_exec_cache_hits_total 8000",
		"lucidscript_searches_total 2",
		"lucidscript_phase_total_nanoseconds_total 3000000000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, out)
		}
	}
	// Sorted output: hits before searches before total nanos.
	if strings.Index(out, "exec_cache_hits") > strings.Index(out, "searches_total") {
		t.Errorf("dump not sorted:\n%s", out)
	}
}

func TestMetricsValueUnregistered(t *testing.T) {
	m := NewMetrics()
	if v := m.Value("never_touched"); v != 0 {
		t.Fatalf("unregistered value = %d", v)
	}
	if names := m.Names(); len(names) != 0 {
		t.Fatalf("names = %v", names)
	}
}
