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

// TestP2PStateBytes: p2pMachine's state bytes restore every round-to-round
// field exactly (overflow child links included), version-1 p2pState values
// render the same bytes, and malformed bytes are refused.
func TestP2PStateBytes(t *testing.T) {
	over := []int32{64, 70}
	m := &p2pMachine{
		partial: -5, result: 1 << 40, childMask: 0b1011, childOver: &over,
		parentLink: 2, acksPending: 1, reports: 3, childCount: 5,
		flags: p2pAdopted | p2pExplored,
	}
	raw := m.AppendState(nil)
	var back p2pMachine
	if err := back.RestoreState(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, m) {
		t.Errorf("restored %+v, want %+v", back, *m)
	}
	v1 := p2pState{
		Partial: -5, Adopted: true, Explored: true, ParentLink: 2, AcksPending: 1,
		ChildLinks: []int{0, 1, 3, 64, 70}, Reports: 3, Result: 1 << 40,
	}
	if got := v1.AppendState(nil); !reflect.DeepEqual(got, raw) {
		t.Errorf("version-1 state renders %x, machine %x", got, raw)
	}

	for cut := range raw {
		if err := back.RestoreState(raw[:cut]); err == nil {
			t.Errorf("state truncated to %d of %d bytes restored", cut, len(raw))
		}
	}
	for _, bad := range []struct {
		name string
		s    p2pState
	}{
		{"negative child link", p2pState{ChildLinks: []int{-1}}},
		{"parent link beyond int32", p2pState{ParentLink: 1 << 40}},
	} {
		if err := back.RestoreState(bad.s.AppendState(nil)); err == nil {
			t.Errorf("%s restored", bad.name)
		}
	}
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"trailing byte", append(raw[:len(raw):len(raw)], 0)},
		{"unknown flag", append([]byte{0x10}, raw[1:]...)},
		{"overflow link below 64", (&p2pMachine{childOver: &[]int32{10}}).AppendState(nil)},
	} {
		if err := back.RestoreState(tc.b); err == nil {
			t.Errorf("%s restored", tc.name)
		}
	}
}
