package partition

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// §7.3: a deterministic algorithm for computing the network size when n is
// not known in advance. The deterministic partition runs phase by phase; at
// the end of phase i the cores attempt to schedule themselves on the channel
// with a Capetanakis budget proportional to 2^i (times the id length). Once
// the schedule completes with at most 2^i cores, sizes are re-counted and
// broadcast in schedule order; their sum is n. The nodes use only an upper
// bound U on the id universe (ids are O(log n) bits), never n itself.

// SizeCountResult is what every node learns from the §7.3 algorithm.
type SizeCountResult struct {
	N      int // the computed network size
	Phases int // partition phases executed before the probe succeeded
}

// sizeSlot carries one core's fragment size during the final summation.
type sizeSlot struct{ Size int }

const maxSizePhases = 40 // safety cap; the probe succeeds near log(n)/2

// CountNodes runs the §7.3 deterministic size computation and returns the
// value of n every node computed, with run metrics.
func CountNodes(g graph.Topology, seed int64, idUniverse int) (*SizeCountResult, *sim.Metrics, error) {
	if idUniverse < g.N() {
		return nil, nil, fmt.Errorf("partition: id universe %d below node count %d", idUniverse, g.N())
	}
	res, err := sim.RunStep(g, sizeProgram(idUniverse), sim.WithSeed(seed), sim.WithEngine(sim.DefaultEngine))
	if err != nil {
		return nil, nil, err
	}
	first, ok := res.Results[0].(SizeCountResult)
	if !ok {
		return nil, nil, fmt.Errorf("partition: node 0 recorded %T", res.Results[0])
	}
	for v, r := range res.Results {
		if r != first {
			return nil, nil, fmt.Errorf("partition: node %d computed %+v, node 0 %+v", v, r, first)
		}
	}
	return &first, &res.Metrics, nil
}

// sizeMachine runs the §7.3 algorithm: partition phases, each followed by
// a bounded Capetanakis probe of the cores, and once a probe succeeds the
// fragment census and one size slot per scheduled core.
type sizeMachine struct {
	dnode
	script     []dstep
	idUniverse int
	idBits     int
	phase      int

	probe    *resolve.CapetanakisStep // the running probe
	sched    []resolve.ScheduledItem  // the cores, once a probe succeeded
	counting bool                     // the census after the successful probe
	slot     int                      // the size slot awaiting its outcome; -1 before
	total    int
	result   any
}

// countScript is the fragment census alone.
var countScript = []dstep{{handle: (*dnode).countStep}}

func sizeProgram(idUniverse int) sim.StepProgram {
	script := phaseScript(cvStepsFor(idUniverse), false)
	idBits := bits.Len(uint(idUniverse - 1))
	return func(c sim.Node) sim.Machine {
		return &sizeMachine{dnode: newDNode(c), script: script, idUniverse: idUniverse, idBits: idBits, slot: -1}
	}
}

func (m *sizeMachine) Step(in sim.Input) bool {
	switch {
	case in.Round == 0:
		m.beginPhase(m.script, 0)
	case m.slot >= 0:
		if in.Slot.State != sim.SlotSuccess {
			m.c.Failf("size slot for core %d was %v", m.sched[m.slot].ID, in.Slot.State)
		}
		m.total += in.Slot.Payload.(sizeSlot).Size
		return m.nextSlot()
	case m.probe != nil:
		if !m.probe.Poll(in) {
			return false
		}
		// Re-count and broadcast the sizes if the schedule is complete and
		// short enough; otherwise run the next phase. Either starts now.
		if m.probe.Complete && len(m.probe.Sched) <= 1<<uint(min(m.phase, 30)) {
			m.sched, m.counting = m.probe.Sched, true
			m.run(countScript)
		} else {
			m.phase++
			if m.phase == maxSizePhases {
				m.c.Failf("size probe never succeeded within %d phases", maxSizePhases)
			}
			m.beginPhase(m.script, m.phase)
		}
		m.probe = nil
	}
	for m.advance(in) {
		if m.counting {
			// Broadcast the sizes in schedule order, starting in this
			// round; their sum is n.
			return m.nextSlot()
		}
		// Probe: can the cores be scheduled within the phase budget?
		budget := 2*(1<<uint(min(m.phase, 30)))*(m.idBits+2) + 4
		m.probe = resolve.NewCapetanakisStep(m.c, m.idUniverse, m.isCore(), int(m.c.ID()), nil, budget)
		m.probe.Begin() // never done at once: the budget is positive
		return false
	}
	return false
}

// nextSlot stages the broadcast of the next size slot, or halts once every
// scheduled core has spoken.
func (m *sizeMachine) nextSlot() bool {
	m.slot++
	if m.slot == len(m.sched) {
		m.result = SizeCountResult{N: m.total, Phases: m.phase + 1}
		return true
	}
	if graph.NodeID(m.sched[m.slot].ID) == m.c.ID() {
		m.c.Broadcast(sizeSlot{Size: m.size})
	}
	return false
}

func (m *sizeMachine) Result() any { return m.result }
