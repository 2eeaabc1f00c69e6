package e2e

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// ParsePrometheus reads the Prometheus text exposition format into sample
// name → value. Comment and blank lines are skipped; a sample's labels,
// when present, stay part of its name.
func ParsePrometheus(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The name runs to the first space outside the label braces; an
		// optional timestamp may follow the value.
		cut := strings.IndexByte(line, ' ')
		if brace := strings.IndexByte(line, '{'); brace >= 0 && brace < cut {
			end := strings.IndexByte(line, '}')
			if end < 0 {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", n, line)
			}
			cut = end + 1 + strings.IndexByte(line[end+1:], ' ')
			if cut == end {
				return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
			}
		}
		if cut <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value and an optional timestamp: %q", n, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// PromDelta is after − before for every sample in after, with the
// "lucidscript_" prefix the servers add stripped, so the keys are the
// internal/obs metric names.
func PromDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for name, v := range after {
		out[strings.TrimPrefix(name, "lucidscript_")] = v - before[name]
	}
	return out
}
