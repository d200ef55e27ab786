package snapshot

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// runBoth runs prog on both engines and requires identical results and
// metrics; it returns the step engine's run.
func runBoth(t *testing.T, g graph.Topology, prog sim.StepProgram) *sim.Result {
	t.Helper()
	var out [2]*sim.Result
	for i, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineStep} {
		res, err := sim.RunStep(g, prog, sim.WithEngine(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		out[i] = res
	}
	if !reflect.DeepEqual(out[0].Results, out[1].Results) || out[0].Metrics != out[1].Metrics {
		t.Errorf("engines diverge:\n goroutine %v %+v\n step      %v %+v",
			out[0].Results, out[0].Metrics, out[1].Results, out[1].Metrics)
	}
	return out[1]
}

func TestSnapshotConsistentCut(t *testing.T) {
	// Nodes run a local counter incremented every round; a snapshot must
	// capture all counters at the same round, so all recorded values agree.
	const n = 12
	g, err := graph.Ring(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, g, func(c sim.Node) sim.Machine {
		m := &countThenSnap{}
		trigger := c.ID() == 4 || c.ID() == 9 // two concurrent initiators
		m.take = NewTakeStep(c, trigger, func(int) { m.recorded = m.counter })
		return m
	})
	first := res.Results[0].([3]int)
	if first[0] != 9 { // election picks the max id among initiators
		t.Errorf("initiator = %d, want 9", first[0])
	}
	if first[1] != 3+1+4 || first[2] != 3 {
		t.Errorf("cut %v, want round %d with counter 3", first, 3+1+4)
	}
	for v, r := range res.Results {
		if r != first {
			t.Errorf("node %d cut %v != node 0 cut %v", v, r, first)
		}
	}
}

// countThenSnap increments a local counter for three rounds of local work,
// then takes a snapshot that records the counter.
type countThenSnap struct {
	take              *TakeStep
	counter, recorded int
	cut               any
}

func (m *countThenSnap) Step(in sim.Input) bool {
	switch {
	case in.Round < 3:
		m.counter++
		return false
	case in.Round == 3:
		return m.take.Begin()
	case !m.take.Poll(in):
		return false
	}
	if m.take.OK {
		m.cut = [3]int{int(m.take.Cut.Initiator), m.take.Cut.Round, m.recorded}
	}
	return true
}

func (m *countThenSnap) Result() any { return m.cut }

func TestSnapshotNoInitiator(t *testing.T) {
	g, err := graph.Ring(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, g, func(c sim.Node) sim.Machine {
		take := NewTakeStep(c, false, func(int) {})
		return resolve.Machine(take, func() any { return take.OK })
	})
	for v, r := range res.Results {
		if r != false {
			t.Errorf("node %d: ok = %v, want false", v, r)
		}
	}
}

func TestSnapshotUsesNoP2PMessages(t *testing.T) {
	g, err := graph.RandomConnected(20, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, g, func(c sim.Node) sim.Machine {
		return resolve.Machine(NewTakeStep(c, c.ID() == 0, func(int) {}), func() any { return nil })
	})
	if res.Metrics.Messages != 0 {
		t.Errorf("snapshot sent %d point-to-point messages", res.Metrics.Messages)
	}
	if res.Metrics.Rounds > 12 {
		t.Errorf("snapshot took %d rounds, want O(log n)", res.Metrics.Rounds)
	}
}

func TestConsistent(t *testing.T) {
	good := []Cut{{Initiator: 1, Round: 5}, {Initiator: 1, Round: 5}}
	if err := Consistent(good); err != nil {
		t.Errorf("consistent cuts rejected: %v", err)
	}
	bad := []Cut{{Initiator: 1, Round: 5}, {Initiator: 1, Round: 6}}
	if err := Consistent(bad); err == nil {
		t.Error("inconsistent cuts accepted")
	}
}
