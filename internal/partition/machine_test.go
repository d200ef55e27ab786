package partition

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// machinePrograms are the package's machine programs, each with the info it
// reports at node 0.
func machinePrograms(n int) map[string]func() sim.StepProgram {
	return map[string]func() sim.StepProgram{
		"deterministic": func() sim.StepProgram {
			return deterministicProgram(n, DeterministicPhaseCount(n), false, new(DeterministicInfo))
		},
		"parallel-mwoe": func() sim.StepProgram {
			return deterministicProgram(n, DeterministicPhaseCount(n), true, new(DeterministicInfo))
		},
		"randomized":  func() sim.StepProgram { return randomizedProgram(false, new(RandomizedInfo)) },
		"las-vegas":   func() sim.StepProgram { return randomizedProgram(true, new(RandomizedInfo)) },
		"size-count":  func() sim.StepProgram { return sizeProgram(64) },
		"boruvka-all": func() sim.StepProgram { return deterministicProgram(n, 7, false, new(DeterministicInfo)) },
	}
}

// TestMachinesOnBothEngines runs every machine on the goroutine engine,
// which steps each node every round, and on the step engine, which parks
// the nodes a barrier step leaves passive: results and metrics must match.
func TestMachinesOnBothEngines(t *testing.T) {
	g, err := graph.RandomConnected(40, 70, 8)
	if err != nil {
		t.Fatal(err)
	}
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, prog := range machinePrograms(g.N()) {
		t.Run(name, func(t *testing.T) {
			var out [2]*sim.Result
			for i, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineStep} {
				if out[i], err = sim.RunStep(g, prog(), sim.WithSeed(3), sim.WithEngine(e)); err != nil {
					t.Fatalf("%v: %v", e, err)
				}
			}
			if !reflect.DeepEqual(out[0].Results, out[1].Results) {
				t.Errorf("results differ between engines")
			}
			if out[0].Metrics != out[1].Metrics {
				t.Errorf("metrics differ:\n goroutine %+v\n step      %+v", out[0].Metrics, out[1].Metrics)
			}
		})
	}
}

// TestMachinesRefuseCheckpoints: the machines carry no checkpointable
// state, so a checkpointing run fails with an error instead of panicking.
func TestMachinesRefuseCheckpoints(t *testing.T) {
	g, err := graph.Ring(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, prog := range machinePrograms(g.N()) {
		t.Run(name, func(t *testing.T) {
			spec := &sim.CheckpointSpec{At: []int{3}, Sink: func(*sim.Checkpoint) error { return nil }}
			_, err := sim.RunStep(g, prog(), sim.WithEngine(sim.EngineStep), sim.WithCheckpoints(spec))
			if err == nil || strings.Contains(err.Error(), "panicked") {
				t.Fatalf("checkpointing run: err = %v, want a capture error", err)
			}
		})
	}
}
