package e2e

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	const n, rate = 150, 15.0
	a := poissonSchedule(rand.New(rand.NewSource(7)), n, rate)
	b := poissonSchedule(rand.New(rand.NewSource(7)), n, rate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(rand.New(rand.NewSource(8)), n, rate)) {
		t.Fatal("another seed gave the same schedule")
	}
	if len(a) != n {
		t.Fatalf("got %d arrivals, want %d", len(a), n)
	}
	span := time.Duration(float64(n) / rate * float64(time.Second))
	for i, due := range a {
		if due < 0 || due >= span {
			t.Fatalf("arrival %d at %v, outside [0, %v)", i, due, span)
		}
		if i > 0 && due < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, due, i-1, a[i-1])
		}
	}
}

func TestPlanJobsDeterministic(t *testing.T) {
	datasets := make([]*dataset, 3)
	for i := range datasets {
		d := &dataset{name: fmt.Sprintf("d%d", i)}
		for k := 0; k < 4; k++ {
			d.pool = append(d.pool, fmt.Sprintf("%s-script-%d", d.name, k))
		}
		datasets[i] = d
	}
	plan := func(seed int64) []string {
		specs, err := planJobs(rand.New(rand.NewSource(seed)), datasets, 12)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(specs))
		for i, s := range specs {
			if s.index != i || s.ds != datasets[i%3] {
				t.Fatalf("job %d: index %d on %s, want round-robin", i, s.index, s.ds.name)
			}
			out[i] = s.script
		}
		return out
	}
	a := plan(1)
	if !reflect.DeepEqual(a, plan(1)) {
		t.Fatal("the same seed chose two job sequences")
	}
	if reflect.DeepEqual(a, plan(2)) {
		t.Fatal("another seed chose the same job sequence")
	}
	seen := map[string]int{}
	for _, s := range a {
		seen[s]++
	}
	for _, d := range datasets {
		for _, s := range d.pool {
			if seen[s] != 1 {
				t.Errorf("pool script %s submitted %d times, want once", s, seen[s])
			}
		}
	}
	if _, err := planJobs(rand.New(rand.NewSource(1)), datasets, 13); err == nil {
		t.Error("planning more jobs than the pools hold succeeded")
	}
}

func TestWarmSpecsInterleaveAndStayClear(t *testing.T) {
	datasets := []*dataset{{name: "a", warm: []string{"a0", "a1"}}, {name: "b", warm: []string{"b0"}}}
	var got []string
	for i, s := range warmSpecs(datasets) {
		if s.index != warmIndex+i {
			t.Errorf("warm job %d has index %d, want %d", i, s.index, warmIndex+i)
		}
		got = append(got, s.script)
	}
	if want := []string{"a0", "b0", "a1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("warm-up order %v, want %v", got, want)
	}
}
