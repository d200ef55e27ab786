package sim_test

// checkpoint_bench_test.go measures the MMCP codec layer on a realistic
// capture: the §5.2 point-to-point census on an implicit 300×300 torus,
// checkpointed halfway through its rounds. Both benchmarks report ns/node
// and B/node (the encoded checkpoint's size per node). This is an external
// test package so the census protocol (which imports sim) can run here.

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/sim"
)

var censusCapture = sync.OnceValues(func() (*sim.Checkpoint, error) {
	g, err := graph.ImplicitTorus(300, 300, 1)
	if err != nil {
		return nil, err
	}
	ones := func(graph.NodeID) int64 { return 1 }
	res, err := sim.RunStep(g, globalfunc.P2PStepProgram(globalfunc.Sum, ones), sim.WithSeed(1))
	if err != nil {
		return nil, err
	}
	var cp *sim.Checkpoint
	spec := &sim.CheckpointSpec{At: []int{res.Metrics.Rounds / 2}, Sink: func(c *sim.Checkpoint) error {
		cp = c
		return nil
	}}
	_, err = sim.RunStep(g, globalfunc.P2PStepProgram(globalfunc.Sum, ones), sim.WithSeed(1), sim.WithCheckpoints(spec))
	return cp, err
})

// reportPerNode adds the ns/node and B/node metrics of a codec benchmark.
func reportPerNode(b *testing.B, cp *sim.Checkpoint, size int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cp.N), "ns/node")
	b.ReportMetric(float64(size)/float64(cp.N), "B/node")
}

func BenchmarkCheckpointWriteTo(b *testing.B) {
	cp, err := censusCapture()
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	b.ReportAllocs()
	for b.Loop() {
		if size, err = cp.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	reportPerNode(b, cp, int(size))
}

func BenchmarkReadCheckpoint(b *testing.B) {
	cp, err := censusCapture()
	if err != nil {
		b.Fatal(err)
	}
	raw, err := cp.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sim.ReadCheckpoint(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
	reportPerNode(b, cp, len(raw))
}
