package resolve

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// withEngine runs f with the process default engine switched.
func withEngine(t *testing.T, e sim.Engine, f func()) {
	t.Helper()
	old := sim.DefaultEngine
	sim.DefaultEngine = e
	defer func() { sim.DefaultEngine = old }()
	f()
}

// TestElectEngineEquivalence: the election machine must elect the same
// leader with identical metrics on the goroutine engine and the step engine.
func TestElectEngineEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33, 64} {
		g, err := graph.Ring(max(n, 3), 1)
		if err != nil {
			t.Fatal(err)
		}
		var goLeader, stLeader int
		var goMet, stMet sim.Metrics
		withEngine(t, sim.EngineGoroutine, func() { goLeader, goMet, err = Elect(g, 1) })
		if err != nil {
			t.Fatalf("n=%d goroutine: %v", n, err)
		}
		withEngine(t, sim.EngineStep, func() { stLeader, stMet, err = Elect(g, 1) })
		if err != nil {
			t.Fatalf("n=%d step: %v", n, err)
		}
		if goLeader != stLeader || !reflect.DeepEqual(goMet, stMet) {
			t.Errorf("n=%d diverges: goroutine (%d, %+v) step (%d, %+v)",
				n, goLeader, goMet, stLeader, stMet)
		}
		if want := g.N() - 1; goLeader != want {
			t.Errorf("n=%d leader = %d, want max id %d", n, goLeader, want)
		}
	}
}

// runBothEngines runs prog on the goroutine engine and the step engine and
// requires identical results and metrics.
func runBothEngines(t *testing.T, g graph.Topology, seed int64, prog sim.StepProgram) *sim.Result {
	t.Helper()
	var out [2]*sim.Result
	for i, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineStep} {
		res, err := sim.RunStep(g, prog, sim.WithSeed(seed), sim.WithEngine(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		out[i] = res
	}
	if !reflect.DeepEqual(out[0].Results, out[1].Results) {
		t.Errorf("seed %d: results diverge:\n goroutine: %#v\n step:      %#v", seed, out[0].Results, out[1].Results)
	}
	if !reflect.DeepEqual(out[0].Metrics, out[1].Metrics) {
		t.Errorf("seed %d: metrics diverge:\n goroutine: %+v\n step:      %+v", seed, out[0].Metrics, out[1].Metrics)
	}
	return out[1]
}

// TestCapetanakisEngineEquivalence runs Capetanakis with a subset of
// contenders on both engines and compares schedule and metrics.
func TestCapetanakisEngineEquivalence(t *testing.T) {
	g, err := graph.Ring(24, 1)
	if err != nil {
		t.Fatal(err)
	}
	contender := func(id graph.NodeID) bool { return id%3 == 0 }
	stRes := runBothEngines(t, g, 1, func(c sim.Node) sim.Machine {
		s := NewCapetanakisStep(c, c.N(), contender(c.ID()), int(c.ID()), int(c.ID())*10, 0)
		return Machine(s, func() any { return s.Sched })
	})
	if sched := stRes.Results[0].([]ScheduledItem); len(sched) != 8 {
		t.Errorf("scheduled %d contenders, want 8", len(sched))
	}
}

// TestMetcalfeBoggsEngineEquivalence compares the randomized contention
// component draw-for-draw across engines.
func TestMetcalfeBoggsEngineEquivalence(t *testing.T) {
	g, err := graph.Ring(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, 99} {
		runBothEngines(t, g, seed, func(c sim.Node) sim.Machine {
			s := NewMetcalfeBoggsStep(c, 4, c.ID()%2 == 0, int(c.ID()), nil, 0)
			return Machine(s, func() any { return []any{s.Sched, s.Done} })
		})
	}
}
