package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/size"
)

// runE9 characterizes the two execution engines. Part (a) runs the same
// machine — the point-to-point census — on the goroutine engine and on the
// step engine, asserting identical transcripts and reporting the wall-clock
// ratio. Part (b) sweeps the native census alone up to 10⁶-node
// rings and grids (full mode), the scale the goroutine engine cannot reach:
// its cost is nodes × rounds channel handoffs, while the step engine's
// sleep/wake activation makes the same run cost O(n + m) machine steps.
func runE9(w io.Writer, full bool) error {
	ones := func(graph.NodeID) int64 { return 1 }

	ta := &Table{
		Title: "E9a — engine comparison: p2p census, identical protocol on both engines",
		Header: []string{"graph", "n", "rounds", "messages", "goroutine ms",
			"step ms", "speedup", "same transcript?"},
	}
	type shape struct {
		name string
		mk   func() (*graph.Graph, error)
	}
	cmp := []shape{
		{"ring", func() (*graph.Graph, error) { return graph.Ring(1024, 1) }},
		{"grid", func() (*graph.Graph, error) { return graph.Grid(48, 48, 1) }},
	}
	if full {
		cmp = []shape{
			{"ring", func() (*graph.Graph, error) { return graph.Ring(4096, 1) }},
			{"grid", func() (*graph.Graph, error) { return graph.Grid(128, 128, 1) }},
		}
	}
	for _, sh := range cmp {
		g, err := sh.mk()
		if err != nil {
			return err
		}
		// Pin each leg to its engine: mmexp -engine step retargets
		// sim.DefaultEngine, and a baseline that silently ran on the step
		// engine would make this comparison measure nothing.
		t0 := time.Now()
		gor, err := globalfunc.PointToPoint(g, 1, globalfunc.Sum, ones, sim.WithEngine(sim.EngineGoroutine))
		if err != nil {
			return fmt.Errorf("E9a %s goroutine: %w", sh.name, err)
		}
		dg := time.Since(t0)
		t0 = time.Now()
		nat, err := globalfunc.PointToPoint(g, 1, globalfunc.Sum, ones, sim.WithEngine(sim.EngineStep))
		if err != nil {
			return fmt.Errorf("E9a %s step: %w", sh.name, err)
		}
		ds := time.Since(t0)
		same := "yes"
		if gor.Value != nat.Value || gor.Total != nat.Total {
			same = "NO"
		}
		ta.Add(sh.name, g.N(), nat.Total.Rounds, nat.Total.Messages,
			float64(dg.Milliseconds()), float64(ds.Milliseconds()),
			float64(dg.Nanoseconds())/float64(ds.Nanoseconds()), same)
	}
	ta.Fprint(w)
	fmt.Fprintln(w)

	tb := &Table{
		Title: "E9b — native step engine scaling: census (network size) to 10^7 nodes",
		Header: []string{"graph", "n", "rounds", "messages", "wall ms",
			"Mnode-rounds/s", "count ok?"},
	}
	sizes := []int{10_000, 100_000}
	if full {
		sizes = []int{10_000, 100_000, 1_000_000, 10_000_000}
	}
	for _, n := range sizes {
		for _, name := range []string{"ring", "grid"} {
			// Past 10⁶ nodes a materialized topology is itself the memory
			// bottleneck (≈100 B/node of adjacency before any protocol state),
			// so the big rows run on the implicit forms: same neighborhoods,
			// O(1) topology footprint, adjacency computed per step.
			var (
				g   graph.Topology
				err error
			)
			switch {
			case name == "ring" && n >= 1_000_000:
				g, err = graph.ImplicitRing(n, 1)
			case name == "ring":
				g, err = graph.Ring(n, 1)
			case n >= 1_000_000:
				side := sqrtSide(n)
				g, err = graph.ImplicitGrid(side, side, 1)
			default:
				side := sqrtSide(n)
				g, err = graph.Grid(side, side, 1)
			}
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := size.Census(g, 1)
			if err != nil {
				return fmt.Errorf("E9b %s n=%d: %w", name, g.N(), err)
			}
			d := time.Since(t0)
			ok := "yes"
			if res.N != g.N() {
				ok = "NO"
			}
			// Node-rounds the goroutine engine would have scheduled for the
			// same run; the step engine's sleep/wake activation skips almost
			// all of them, which is the scaling headroom being measured.
			nodeRounds := float64(g.N()) * float64(res.Metrics.Rounds)
			tb.Add(name, g.N(), res.Metrics.Rounds, res.Metrics.Messages,
				float64(d.Milliseconds()), nodeRounds/1e6/d.Seconds(), ok)
		}
	}
	tb.Fprint(w)
	return nil
}

// sqrtSide returns the side of the largest square grid with at most n nodes.
func sqrtSide(n int) int {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	return side
}
