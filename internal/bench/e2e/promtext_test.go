package e2e

import (
	"os"
	"testing"
)

// testdata/metrics.txt is a GET /metrics body captured from the service
// after two jobs.
func TestParsePrometheusCapturedBody(t *testing.T) {
	body, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := ParsePrometheus(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 26 {
		t.Errorf("parsed %d samples, want 26", len(vals))
	}
	for name, want := range map[string]float64{
		"lucidscript_searches_total":                2,
		"lucidscript_exec_checks_total":             242,
		"lucidscript_exec_cache_hits_total":         3025,
		"lucidscript_phase_total_nanoseconds_total": 83301137,
		"lucidscript_queue_depth":                   0,
	} {
		if got, ok := vals[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

func TestPromDelta(t *testing.T) {
	before, err := ParsePrometheus("# TYPE lucidscript_searches_total counter\nlucidscript_searches_total 2\nlucidscript_http_requests_total 23\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := ParsePrometheus("lucidscript_searches_total 12\nlucidscript_http_requests_total 40 1700000000000\nlucidscript_exec_checks_total 7\n")
	if err != nil {
		t.Fatal(err)
	}
	delta := PromDelta(before, after)
	for name, want := range map[string]float64{"searches_total": 10, "http_requests_total": 17, "exec_checks_total": 7} {
		if delta[name] != want {
			t.Errorf("delta %s = %v, want %v", name, delta[name], want)
		}
	}
}

func TestParsePrometheusLabelsAndErrors(t *testing.T) {
	vals, err := ParsePrometheus(`http_requests{code="200",path="/v1 jobs"} 4`)
	if err != nil {
		t.Fatal(err)
	}
	if got := vals[`http_requests{code="200",path="/v1 jobs"}`]; got != 4 {
		t.Errorf("labelled sample = %v, want 4", got)
	}
	for _, bad := range []string{"lonely_name", "name notanumber", `name{a="b" 3`, "name 1 2 3"} {
		if _, err := ParsePrometheus(bad); err == nil {
			t.Errorf("ParsePrometheus(%q) succeeded, want an error", bad)
		}
	}
}
