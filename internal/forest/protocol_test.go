package forest

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func withEngine(t *testing.T, e sim.Engine, f func()) {
	t.Helper()
	old := sim.DefaultEngine
	sim.DefaultEngine = e
	defer func() { sim.DefaultEngine = old }()
	f()
}

// TestBFSGrowsSpanningTree: the protocol must produce a single spanning
// tree rooted at node 0, with every node learning n.
func TestBFSGrowsSpanningTree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (*graph.Graph, error)
	}{
		{"pair", func() (*graph.Graph, error) { return graph.Path(2, 1) }},
		{"ring48", func() (*graph.Graph, error) { return graph.Ring(48, 2) }},
		{"random64", func() (*graph.Graph, error) { return graph.RandomConnected(64, 120, 5) }},
		{"star32", func() (*graph.Graph, error) { return graph.Star(32, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			f, total, met, err := BFS(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if total != g.N() {
				t.Errorf("total = %d, want %d", total, g.N())
			}
			if f.Trees() != 1 {
				t.Errorf("trees = %d, want 1", f.Trees())
			}
			if f.Root(0) != 0 {
				t.Errorf("root of node 0 = %d, want 0", f.Root(0))
			}
			if met.Messages == 0 && g.N() > 1 {
				t.Error("no messages recorded")
			}
		})
	}
}

// TestBFSEngineEquivalence: both engines must produce identical forests and
// metrics.
func TestBFSEngineEquivalence(t *testing.T) {
	g, err := graph.RandomConnected(80, 160, 7)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		parent []graph.NodeID
		edges  []int
		met    sim.Metrics
	}
	var want, got out
	withEngine(t, sim.EngineGoroutine, func() {
		f, _, met, err := BFS(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = out{f.Parent, f.ParentEdge, met}
	})
	withEngine(t, sim.EngineStep, func() {
		f, _, met, err := BFS(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		got = out{f.Parent, f.ParentEdge, met}
	})
	if !reflect.DeepEqual(want, got) {
		t.Errorf("engines diverge:\n goroutine: %+v\n step:      %+v", want, got)
	}
}
