package size

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func TestCensusCountsExactly(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (*graph.Graph, error)
		n    int
	}{
		{"ring200", func() (*graph.Graph, error) { return graph.Ring(200, 1) }, 200},
		{"grid12x12", func() (*graph.Graph, error) { return graph.Grid(12, 12, 2) }, 144},
		{"random81", func() (*graph.Graph, error) { return graph.RandomConnected(81, 160, 3) }, 81},
		{"path2", func() (*graph.Graph, error) { return graph.Path(2, 4) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Census(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.N != tc.n {
				t.Errorf("census = %d, want %d", res.N, tc.n)
			}
			if res.Metrics.Slots() != 0 {
				t.Errorf("census used %d channel slots", res.Metrics.Slots())
			}
		})
	}
}

// TestEstimateEngineEquivalence runs the Greenberg–Ladner machine on the
// goroutine engine and the step engine: identical estimates and metrics,
// seed by seed.
func TestEstimateEngineEquivalence(t *testing.T) {
	g, err := graph.RandomConnected(120, 240, 5)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		gor, err := Estimate(g, seed, sim.WithEngine(sim.EngineGoroutine))
		if err != nil {
			t.Fatal(err)
		}
		st, err := Estimate(g, seed, sim.WithEngine(sim.EngineStep))
		if err != nil {
			t.Fatal(err)
		}
		if gor.Estimate != st.Estimate || gor.Rounds != st.Rounds || gor.Metrics != st.Metrics {
			t.Errorf("seed %d: goroutine %+v, step %+v", seed, gor, st)
		}
	}
}

// TestEstimatorStateBytes: the estimator's state bytes round-trip, match
// the version-1 glState rendering, and refuse malformed input.
func TestEstimatorStateBytes(t *testing.T) {
	var m estimateMachine
	m.gl.Probe, m.gl.Estimate = 7, 1<<33
	raw := m.AppendState(nil)
	var back estimateMachine
	if err := back.RestoreState(raw); err != nil {
		t.Fatal(err)
	}
	if back.gl.Probe != 7 || back.gl.Estimate != 1<<33 {
		t.Errorf("restored probe %d estimate %d", back.gl.Probe, back.gl.Estimate)
	}
	if got := (glState{I: 7, Est: 1 << 33}).AppendState(nil); string(got) != string(raw) {
		t.Errorf("version-1 state renders %x, machine %x", got, raw)
	}
	for cut := range raw {
		if err := back.RestoreState(raw[:cut]); err == nil {
			t.Errorf("state truncated to %d of %d bytes restored", cut, len(raw))
		}
	}
	if err := back.RestoreState(append(raw, 0)); err == nil {
		t.Error("state with a trailing byte restored")
	}
}
