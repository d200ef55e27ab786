package main

// bench_test.go is the benchmark's self-test at tiny sizes: every metric
// BENCHMARK.json names is emitted with its unit, and wrong answers count as
// failures.

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

var tiny = sizes{randomN: 60, randomExtra: 120, torusSide: 20, chaosSide: 20, ckptEvery: 10, keepCapture: 2}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 7, trace: trace, setupReps: 1, full: tiny, warm: tiny}
}

func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			out, err := benchmark(tinyConfig(w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w.Name, trace, out.Correct, out.Failed, out.Attempted, out.errs)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

func TestWrongReferenceCountsAsFailure(t *testing.T) {
	sim.DefaultEngine, sim.DefaultWorkers = sim.EngineStep, workers
	for _, wl := range workloads {
		inst, _, _, _, _, err := prepare(wl, deriveSeeds(7), tiny)
		if err != nil {
			t.Fatal(err)
		}
		switch w := inst.(type) {
		case *pipelinesRandom:
			w.wantSum++
			w.wantMST = w.wantMST[1:]
			w.wantN++
		case *censusTorus:
			w.wantN++
		case *censusChaos:
			w.wantN++
		default:
			t.Fatalf("%s: unknown instance %T", wl.name, inst)
		}
		r := newRunner(newTracer())
		r.pass(inst, false, 0)
		if r.attempted == 0 || r.failed != r.attempted {
			t.Errorf("%s: %d of %d operations failed against wrong references, want all", wl.name, r.failed, r.attempted)
		}
	}
}

func TestChangedSimulatedCountsCountAsFailure(t *testing.T) {
	sim.DefaultEngine, sim.DefaultWorkers = sim.EngineStep, workers
	wl, _ := findWorkload("census-torus")
	inst, _, _, _, _, err := prepare(wl, deriveSeeds(7), tiny)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(newTracer())
	r.pass(inst, false, 0)
	if r.failed != 0 {
		t.Fatalf("first pass failed: %v", r.errs)
	}
	m := r.ref["census"]
	m.Messages++
	r.ref["census"] = m
	r.pass(inst, false, 1)
	if r.failed != 1 {
		t.Errorf("failed = %d after the reference counts changed, want 1", r.failed)
	}
}

func TestLayerTimesChargeOverlappingPhasesOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "size.Census", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "size.run", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "sim.step", Start: 20, End: 50, phase: true},
		{ID: 3, Parent: 1, Name: "sim.step", Start: 30, End: 60, phase: true},
		{ID: 4, Parent: 1, Name: "io.Checkpoint.WriteTo", Start: 70, End: 80},
	}
	self, rooted := layerTimes(spans, 0)
	want := map[string]float64{"size": 50e-9, "sim": 40e-9, "io": 10e-9}
	for l, w := range want {
		if math.Abs(self[l]-w) > 1e-15 {
			t.Errorf("self[%s] = %v, want %v", l, self[l], w)
		}
	}
	if rooted != 100e-9 {
		t.Errorf("rooted = %v, want 1e-7", rooted)
	}
}

func TestCompareRefusesDifferentShapes(t *testing.T) {
	dir := t.TempDir()
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {Value: 1, Unit: "s"}}}
	a := record{Shape: hostShape(), Workload: "census-torus", Result: res}
	b := a
	b.Shape.GOMAXPROCS++
	for name, rec := range map[string]record{"a.json": a, "b.json": b} {
		if err := writeJSON(filepath.Join(dir, name), rec); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if code := compareRecords(filepath.Join(dir, "a.json"), filepath.Join(dir, "a.json"), &out, &out); code != 0 {
		t.Errorf("same shape: exit %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	code := compareRecords(filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), &out, &out)
	if code == 0 || !strings.Contains(out.String(), "NOT COMPARABLE") || !strings.Contains(out.String(), "gomaxprocs") {
		t.Errorf("different shapes: exit %d, output\n%s", code, out.String())
	}
}

func TestResultLineIsLast(t *testing.T) {
	out, err := benchmark(tinyConfig("census-torus", false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report(&buf, tinyConfig("census-torus", false), out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(last))
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("last line keys %v", keys)
	}
}
