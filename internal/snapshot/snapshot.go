// Package snapshot realizes the §2 observation that global snapshots
// (Chandy–Lamport 1985) are trivial in a multimedia network: the channel
// lets every node hear the same mark in the same round, so all nodes record
// their state at one common round boundary — a consistent cut with no
// marker flooding over the point-to-point network.
//
// When several nodes want a snapshot simultaneously, the §2 deterministic
// election resolves the contention first; the winner's mark round is the
// cut. The whole protocol costs O(log n) slots and no point-to-point
// messages.
package snapshot

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// Cut describes one completed snapshot.
type Cut struct {
	Initiator graph.NodeID
	Round     int // the common round at which every node recorded its state
}

// Consistent verifies that a set of per-node cuts agree (same initiator and
// round) — the defining property the channel makes trivial.
func Consistent(cuts []Cut) error {
	for i := 1; i < len(cuts); i++ {
		if cuts[i] != cuts[0] {
			return fmt.Errorf("snapshot: node %d recorded %+v, node 0 %+v", i, cuts[i], cuts[0])
		}
	}
	return nil
}

// TakeStep is the snapshot sub-protocol, a resolve.Component for embedding
// in a sim.Machine: the §2 election resolves contending initiators, and the
// round in which its final slot is heard — the same round at every node —
// is the cut. No point-to-point message can be in flight across the cut
// boundary for protocols that are quiescent while snapshotting; for running
// applications the cut is simply a common round index, which is all a
// synchronous consistent cut needs.
//
// Every node must begin it in the same round; trigger
// marks this node as wanting a snapshot. Begin starts the protocol in the
// current round; Poll consumes each subsequent round until it reports done,
// after which Cut and OK hold the result — the identical Cut at every node,
// OK false if no node triggered. The record callback fires exactly once, on
// the cut round, iff a snapshot was taken.
type TakeStep struct {
	Cut Cut
	OK  bool

	e      *resolve.ElectionStep
	record func(round int)
}

// NewTakeStep returns the component in its pre-Begin state; trigger marks
// this node as wanting a snapshot.
func NewTakeStep(c sim.Node, trigger bool, record func(round int)) *TakeStep {
	return &TakeStep{e: resolve.NewElectionStep(c, c.N(), trigger, int(c.ID())), record: record}
}

// Begin stages the election's liveness slot.
func (s *TakeStep) Begin() (done bool) { return s.e.Begin() }

// Poll consumes one slot outcome; done means the protocol is over.
func (s *TakeStep) Poll(in sim.Input) (done bool) {
	if !s.e.Poll(in) {
		return false
	}
	if !s.e.OK {
		return true
	}
	s.Cut = Cut{Initiator: graph.NodeID(s.e.Leader), Round: in.Round}
	s.OK = true
	s.record(s.Cut.Round)
	return true
}

// Run takes one snapshot of the whole network on sim.DefaultEngine, with
// node 0 as the (sole) trigger, and returns the cut every node recorded.
func Run(g graph.Topology, seed int64) (Cut, sim.Metrics, error) {
	res, err := sim.RunStep(g, func(c sim.Node) sim.Machine {
		t := NewTakeStep(c, c.ID() == 0, func(int) {})
		return resolve.Machine(t, func() any {
			if !t.OK {
				c.Failf("snapshot not taken")
			}
			return t.Cut
		})
	}, sim.WithSeed(seed), sim.WithEngine(sim.DefaultEngine))
	if err != nil {
		return Cut{}, sim.Metrics{}, err
	}
	// Crash-stopped nodes record nothing; the surviving cuts must agree.
	cuts := make([]Cut, 0, len(res.Results))
	for _, r := range res.Results {
		if c, ok := r.(Cut); ok {
			cuts = append(cuts, c)
		}
	}
	if len(cuts) == 0 {
		return Cut{}, sim.Metrics{}, fmt.Errorf("snapshot: no surviving node recorded a cut")
	}
	if err := Consistent(cuts); err != nil {
		return Cut{}, sim.Metrics{}, err
	}
	return cuts[0], res.Metrics, nil
}
