package globalfunc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// TestPointToPointEngineEquivalence runs the BFS-tree aggregate on the
// goroutine engine and the step engine: identical value and metrics on
// every topology, and the value matches the reference.
func TestPointToPointEngineEquivalence(t *testing.T) {
	in := func(v graph.NodeID) int64 { return (int64(v)*97 + 5) % 1000 }
	for _, tc := range []struct {
		name string
		mk   func() (*graph.Graph, error)
	}{
		{"ring33", func() (*graph.Graph, error) { return graph.Ring(33, 1) }},
		{"grid6x7", func() (*graph.Graph, error) { return graph.Grid(6, 7, 2) }},
		{"random50", func() (*graph.Graph, error) { return graph.RandomConnected(50, 100, 3) }},
		{"star30", func() (*graph.Graph, error) { return graph.Star(30, 4) }},
		{"ray5x4", func() (*graph.Graph, error) { return graph.Ray(5, 4, 5) }},
		{"path2", func() (*graph.Graph, error) { return graph.Path(2, 6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []Op{Sum, Min, Xor} {
				gor, err := PointToPoint(g, 1, op, in, sim.WithEngine(sim.EngineGoroutine))
				if err != nil {
					t.Fatalf("%s goroutine: %v", op.Name, err)
				}
				nat, err := PointToPoint(g, 1, op, in, sim.WithEngine(sim.EngineStep))
				if err != nil {
					t.Fatalf("%s step: %v", op.Name, err)
				}
				if gor.Value != nat.Value {
					t.Errorf("%s: value %d vs %d", op.Name, gor.Value, nat.Value)
				}
				if want := Reference(g, op, in); nat.Value != want {
					t.Errorf("%s: value %d, reference %d", op.Name, nat.Value, want)
				}
				if !reflect.DeepEqual(gor.Total, nat.Total) {
					t.Errorf("%s: metrics %+v vs %+v", op.Name, gor.Total, nat.Total)
				}
			}
		})
	}
}

// TestComputeMachinesRefuseCheckpoints: the compute stage and the
// broadcast-only machines carry no checkpointable state, so a checkpointing
// run fails with an error instead of panicking.
func TestComputeMachinesRefuseCheckpoints(t *testing.T) {
	g, err := graph.Ring(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, _, _, err := partition.Deterministic(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := func(v graph.NodeID) int64 { return int64(v) }
	//mmlint:commutative independent runs; names label, order never asserted
	for name, prog := range map[string]sim.StepProgram{
		"stage": stageProgram(f, Sum, in, StageCapetanakis, 4),
		"broadcast-only": func(c sim.Node) sim.Machine {
			p, _ := scheduler(c, StageMetcalfeBoggs, c.N(), true, in(c.ID()))
			return resolve.Machine(p, func() any { return nil })
		},
	} {
		spec := &sim.CheckpointSpec{At: []int{2}, Sink: func(*sim.Checkpoint) error { return nil }}
		_, err := sim.RunStep(g, prog, sim.WithEngine(sim.EngineStep), sim.WithCheckpoints(spec))
		if err == nil || strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: err = %v, want a capture error", name, err)
		}
	}
}
