package snapshot

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestRunEngineEquivalence: the snapshot machine must record the same cut
// with identical metrics on the goroutine engine and the step engine.
func TestRunEngineEquivalence(t *testing.T) {
	g, err := graph.RandomConnected(40, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	old := sim.DefaultEngine
	defer func() { sim.DefaultEngine = old }()

	sim.DefaultEngine = sim.EngineGoroutine
	goCut, goMet, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim.DefaultEngine = sim.EngineStep
	stCut, stMet, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if goCut != stCut || !reflect.DeepEqual(goMet, stMet) {
		t.Errorf("engines diverge: goroutine (%+v, %+v) step (%+v, %+v)", goCut, goMet, stCut, stMet)
	}
	if goCut.Initiator != 0 {
		t.Errorf("initiator = %d, want 0", goCut.Initiator)
	}
}
