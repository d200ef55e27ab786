package size

// stepcount.go provides the step-machine network-size protocols: Census, a
// point-to-point BFS census that counts the stations exactly in
// O(diameter) rounds and O(n + m) total work — the protocol the step engine
// can run on 10⁶-node networks — and the §7.4 Greenberg–Ladner estimator
// behind Estimate.

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// CensusResult is the outcome of the native BFS census.
type CensusResult struct {
	N       int
	Metrics sim.Metrics
}

// Census counts the stations on the point-to-point network with the step
// engine, whatever sim.DefaultEngine says: the BFS-tree aggregate of
// globalfunc with every input 1. Every node learns n; the channel is never
// used. Thanks to the engine's sleep/wake activation the cost is
// proportional to n + m node-steps, so a million-node ring completes in
// seconds.
func Census(g graph.Topology, seed int64, opts ...sim.Option) (*CensusResult, error) {
	opts = append([]sim.Option{sim.WithEngine(sim.EngineStep)}, opts...)
	res, err := globalfunc.PointToPoint(g, seed, globalfunc.Sum,
		func(graph.NodeID) int64 { return 1 }, opts...)
	if err != nil {
		return nil, fmt.Errorf("size: census: %w", err)
	}
	return &CensusResult{N: int(res.Value), Metrics: res.Total}, nil
}

// estimateMachine runs the §7.4 estimator with every node participating.
type estimateMachine struct {
	gl resolve.GreenbergLadnerStep
}

func (m *estimateMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		m.gl.Begin()
		return false
	}
	return m.gl.Poll(in)
}

func (m *estimateMachine) Result() any { return m.gl.Estimate }

// AppendState implements sim.Snapshotter: varint probe, varint estimate.
func (m *estimateMachine) AppendState(dst []byte) []byte {
	return glState{I: m.gl.Probe, Est: m.gl.Estimate}.AppendState(dst)
}

// RestoreState implements sim.Snapshotter.
func (m *estimateMachine) RestoreState(src []byte) error {
	probe, n := binary.Varint(src)
	if n <= 0 {
		return errors.New("size: estimator state truncated")
	}
	est, k := binary.Varint(src[n:])
	if k <= 0 {
		return errors.New("size: estimator state truncated")
	}
	if rest := len(src) - n - k; rest != 0 {
		return fmt.Errorf("size: estimator state has %d trailing bytes", rest)
	}
	m.gl.Probe, m.gl.Estimate = int(probe), est
	return nil
}

// glState is estimateMachine's state as version-1 checkpoints carried it,
// exported for gob. Its AppendState writes the machine's bytes, which is
// how version-1 checkpoints still resume.
type glState struct {
	I   int
	Est int64
}

// AppendState renders the version-1 state in estimateMachine's layout.
func (s glState) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(s.I))
	return binary.AppendVarint(dst, s.Est)
}

// GLStepProgram returns the Greenberg–Ladner estimator program, for callers
// that drive sim.RunStep or sim.Resume directly (Estimate wraps it with
// result validation). Machines come from a per-run slab: one allocation for
// the whole network.
func GLStepProgram() sim.StepProgram {
	var slab sim.Slab[estimateMachine]
	return func(c sim.Node) sim.Machine {
		m := slab.Alloc(c.N())
		m.gl = *resolve.NewGreenbergLadnerStep(c, true)
		return m
	}
}

func init() {
	gob.Register(glState{})
}
