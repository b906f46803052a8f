package main

import (
	"reflect"
	"testing"
)

// TestRecomposedFig10MatchesExperiments pins that the traced run's Fig 10,
// rebuilt from CalibrateEnergy, enas.Search and munas.Search with a wrapped
// evaluator, is the same program as experiments.Fig10: on the default seed
// both return identical results.
func TestRecomposedFig10MatchesExperiments(t *testing.T) {
	want := defaultFig10(t)
	tr := newTracer()
	got, ft, err := recomposeFig10(1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recomposed Fig 10 differs: fingerprint %016x, experiments.Fig10 %016x",
			fig10Fingerprint(got), fig10Fingerprint(want))
	}
	if ft.calls.Load() == 0 || len(tr.durations("nas.evaluate")) != int(ft.calls.Load()) {
		t.Fatalf("%d evaluator calls, %d spans", ft.calls.Load(), len(tr.durations("nas.evaluate")))
	}
}

// TestSpecNamesEveryWorkload keeps BENCHMARK.json and the runners in step.
func TestSpecNamesEveryWorkload(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}
