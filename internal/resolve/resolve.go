// Package resolve implements the multiaccess-channel conflict-resolution
// protocols the paper builds on: the deterministic tree-splitting algorithm
// of Capetanakis (1979) used to schedule fragment cores, the randomized
// contention scheme in the style of Metcalfe–Boggs (1976), the bit-by-bit
// deterministic election sketched in §2, and the Greenberg–Ladner (1983)
// randomized size estimator of §7.4.
//
// Every protocol is a per-round Component a sim.Machine embeds as one stage
// of its own protocol: all nodes must begin it in the same round; all nodes
// finish it in the same round with identical results, because the only
// information used is the globally-visible sequence of slot resolutions.
// Machine runs a component on its own, as a whole-network run.
package resolve

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// ScheduledItem is one successful channel acquisition: the contender's id
// and the payload it broadcast.
type ScheduledItem struct {
	ID      int
	Payload sim.Payload
}

// wire is the slot payload used by the scheduling protocols.
type wire struct {
	ID   int
	Data sim.Payload
}

// Component is the per-round surface every protocol here shares. The
// embedding machine calls Begin once, in the round the protocol starts (its
// broadcasts are staged in that round), then feeds every subsequent round's
// Input through Poll until it reports done. When either reports done the
// machine continues its own next stage in the same Step call with the same
// Input.
type Component interface {
	Begin() (done bool)
	Poll(in sim.Input) (done bool)
}

// Machine returns a machine that runs p alone: it begins p in its first
// round and halts in the round p finishes, recording finish's value (which
// reads the component's result) as the node's result.
func Machine(p Component, finish func() any) sim.Machine {
	return &soloMachine{p: p, finish: finish}
}

type soloMachine struct {
	p      Component
	finish func() any
	result any
}

func (m *soloMachine) Step(in sim.Input) bool {
	var done bool
	if in.Round == 0 {
		done = m.p.Begin()
	} else {
		done = m.p.Poll(in)
	}
	if done {
		m.result = m.finish()
	}
	return done
}

func (m *soloMachine) Result() any { return m.result }

// Elect runs the §2 deterministic election over the whole network on
// sim.DefaultEngine (mmnet -algo elect), every node contending with its own
// id; the winner is the maximum id, known to every node.
func Elect(g graph.Topology, seed int64) (leader int, met sim.Metrics, err error) {
	res, err := sim.RunStep(g, func(c sim.Node) sim.Machine {
		e := NewElectionStep(c, c.N(), true, int(c.ID()))
		return Machine(e, func() any {
			if !e.OK {
				c.Failf("no contenders")
			}
			return e.Leader
		})
	}, sim.WithSeed(seed), sim.WithEngine(sim.DefaultEngine))
	if err != nil {
		return 0, sim.Metrics{}, err
	}
	// Crash-stopped nodes record nothing; the survivors must agree.
	found := false
	for v, r := range res.Results {
		l, ok := r.(int)
		if !ok {
			continue
		}
		if !found {
			leader, found = l, true
		} else if l != leader {
			return 0, sim.Metrics{}, fmt.Errorf("resolve: node %d elected %v, others %v", v, l, leader)
		}
	}
	if !found {
		return 0, sim.Metrics{}, fmt.Errorf("resolve: no surviving node elected a leader")
	}
	return leader, res.Metrics, nil
}

// interval is one id range on the Capetanakis splitting stack.
type interval struct{ lo, hi int }

// CapetanakisStep is the deterministic tree-splitting resolution over the
// id space [0, idSpace). A node participates as a contender iff contending
// is true, with the given distinct id and payload. After Poll reports done,
// Sched holds the schedule — every contender's id and payload, identical at
// every node — and Complete reports whether the resolution finished within
// the slot budget.
//
// The protocol maintains a stack of id intervals, initially {[0, idSpace)},
// replicated at every node from the public slot outcomes: contenders in the
// top interval transmit; idle pops, success records and pops, collision
// splits the interval in two. With k contenders it uses O(k·log(idSpace/k))
// slots, the bound the paper cites for scheduling fragment cores. The slot
// budget lets the §7.3 size computation probe whether at most 2^i fragments
// remain after phase i.
type CapetanakisStep struct {
	c sim.Node

	Sched    []ScheduledItem
	Complete bool

	idSpace    int
	contending bool
	myID       int
	payload    sim.Payload
	maxSlots   int

	stack []interval
	slots int
}

// NewCapetanakisStep returns the component in its pre-Begin state;
// maxSlots <= 0 means no slot budget.
func NewCapetanakisStep(c sim.Node, idSpace int, contending bool, myID int, payload sim.Payload, maxSlots int) *CapetanakisStep {
	if idSpace < 1 {
		idSpace = 1
	}
	return &CapetanakisStep{
		c: c, idSpace: idSpace, contending: contending, myID: myID,
		payload: payload, maxSlots: maxSlots,
	}
}

// Begin stages the first slot's transmission; call it once, in the round
// the protocol starts. It returns true if the protocol is over before its
// first slot (a zero slot budget).
func (s *CapetanakisStep) Begin() (done bool) {
	s.stack = []interval{{0, s.idSpace}}
	return s.transmit()
}

// transmit opens one slot: give up if the budget is spent, finish if the
// stack is empty, otherwise contend in the top interval.
func (s *CapetanakisStep) transmit() (done bool) {
	if len(s.stack) == 0 {
		s.Complete = true
		return true
	}
	if s.maxSlots > 0 && s.slots >= s.maxSlots {
		return true
	}
	top := s.stack[len(s.stack)-1]
	if s.contending && s.myID >= top.lo && s.myID < top.hi {
		s.c.Broadcast(wire{ID: s.myID, Data: s.payload})
	}
	return false
}

// Poll consumes one slot outcome and stages the next slot's transmission.
// When it reports done the caller proceeds in the same round.
func (s *CapetanakisStep) Poll(in sim.Input) (done bool) {
	s.slots++
	top := s.stack[len(s.stack)-1]
	switch in.Slot.State {
	case sim.SlotIdle:
		s.stack = s.stack[:len(s.stack)-1]
	case sim.SlotSuccess:
		w := in.Slot.Payload.(wire)
		s.Sched = append(s.Sched, ScheduledItem{ID: w.ID, Payload: w.Data})
		if s.contending && w.ID == s.myID {
			s.contending = false
		}
		s.stack = s.stack[:len(s.stack)-1]
	case sim.SlotCollision:
		mid := top.lo + (top.hi-top.lo)/2
		s.stack[len(s.stack)-1] = interval{mid, top.hi}
		s.stack = append(s.stack, interval{top.lo, mid})
	}
	return s.transmit()
}

// ElectionStep is the bit-by-bit deterministic leader election of §2 over
// the id space [0, idSpace): in each slot the surviving contenders whose
// current id bit is 1 transmit a busy tone; a non-idle slot eliminates the
// bit-0 survivors. After ⌈log idSpace⌉ slots the unique survivor is the
// contender with the maximum id, and every node reconstructs that id from
// the public slot outcomes. A leading liveness slot distinguishes "no
// contenders" (OK == false). Takes O(log idSpace) slots, the paper's
// O(log n) deterministic election. After Poll reports done, Leader and OK
// hold the result.
type ElectionStep struct {
	c sim.Node

	Leader int
	OK     bool

	idSpace    int
	contending bool
	myID       int

	surviving bool
	bit       int // bit index awaiting its slot outcome; -1 = liveness slot
}

// NewElectionStep returns the component in its pre-Begin state.
func NewElectionStep(c sim.Node, idSpace int, contending bool, myID int) *ElectionStep {
	return &ElectionStep{c: c, idSpace: idSpace, contending: contending, myID: myID, bit: -1}
}

// Begin stages the liveness slot's transmission.
func (s *ElectionStep) Begin() (done bool) {
	if s.contending {
		s.c.Busy()
	}
	return false
}

// Poll consumes one slot outcome and stages the next bit's transmission.
func (s *ElectionStep) Poll(in sim.Input) (done bool) {
	if s.bit == -1 {
		// Liveness outcome: an idle slot means no contenders.
		if in.Slot.State == sim.SlotIdle {
			return true
		}
		s.OK = true
		s.surviving = s.contending
		bits := 0
		for 1<<bits < s.idSpace {
			bits++
		}
		s.bit = bits // decremented to the first data bit below
	} else {
		if in.Slot.State != sim.SlotIdle {
			s.Leader |= 1 << s.bit
			if s.surviving && s.myID&(1<<s.bit) == 0 {
				s.surviving = false
			}
		}
	}
	s.bit--
	if s.bit < 0 {
		return true
	}
	if s.surviving && s.myID&(1<<s.bit) != 0 {
		s.c.Busy()
	}
	return false
}

// GreenbergLadnerStep is the §7.4 randomized size estimator: in round i
// every participant transmits a busy tone with probability 1/2^i; the
// protocol ends at the first idle slot, after k rounds, and every node
// learns the estimate 2^k. For k participants the estimate is within a
// constant factor of k with high probability. After Poll reports done,
// Estimate holds 2^k. Probe is the index of the probe awaiting its outcome,
// exported with Estimate so a checkpointing machine can save and restore
// the component.
type GreenbergLadnerStep struct {
	c sim.Node

	Estimate int64
	Probe    int

	participating bool
}

// NewGreenbergLadnerStep returns the component in its pre-Begin state.
func NewGreenbergLadnerStep(c sim.Node, participating bool) *GreenbergLadnerStep {
	return &GreenbergLadnerStep{c: c, participating: participating}
}

// Begin stages the first probe's transmission.
func (s *GreenbergLadnerStep) Begin() (done bool) {
	s.transmit()
	return false
}

func (s *GreenbergLadnerStep) transmit() {
	s.Probe++
	p := 1.0
	for j := 0; j < s.Probe; j++ {
		p /= 2
	}
	if s.participating && s.c.Rand().Float64() < p {
		s.c.Busy()
	}
}

// Poll consumes one probe outcome and stages the next probe.
func (s *GreenbergLadnerStep) Poll(in sim.Input) (done bool) {
	if in.Slot.State == sim.SlotIdle {
		s.Estimate = int64(1) << uint(min(s.Probe, 62))
		return true
	}
	s.transmit()
	return false
}

// MetcalfeBoggsStep is randomized contention resolution with paired slots:
// even slots carry data transmissions (each unscheduled contender transmits
// with probability 1/k̂), odd slots carry a liveness busy tone from every
// still-unscheduled contender. The first idle liveness slot ends the
// protocol, so termination is exact without any shared knowledge beyond the
// slot sequence. k̂ starts at max(1, estimate) and adapts multiplicatively
// (collision ×2, idle ÷2, success −1), which recovers from bad estimates.
// With an accurate estimate the expected number of pairs is O(k), matching
// the O(1) expected slots per root the paper cites.
//
// After Poll reports done, Sched holds the schedule and Done whether every
// contender was scheduled within the pair budget (the Las Vegas partition
// verifier of §4 gives up after a bounded number of pairs).
type MetcalfeBoggsStep struct {
	c sim.Node

	Sched []ScheduledItem
	Done  bool

	contending bool
	myID       int
	payload    sim.Payload
	maxPairs   int

	khat     int
	pair     int
	liveness bool // the outcome being awaited is a liveness slot
}

// NewMetcalfeBoggsStep returns the component in its pre-Begin state;
// maxPairs <= 0 means no pair budget.
func NewMetcalfeBoggsStep(c sim.Node, estimate int, contending bool, myID int, payload sim.Payload, maxPairs int) *MetcalfeBoggsStep {
	khat := estimate
	if khat < 1 {
		khat = 1
	}
	return &MetcalfeBoggsStep{c: c, khat: khat, contending: contending, myID: myID, payload: payload, maxPairs: maxPairs}
}

// Begin stages the first contend slot. It returns true if the pair budget
// is zero.
func (s *MetcalfeBoggsStep) Begin() (done bool) { return s.contend() }

// contend stages one contend-slot transmission, or finishes if the pair
// budget is spent.
func (s *MetcalfeBoggsStep) contend() (done bool) {
	if s.maxPairs > 0 && s.pair >= s.maxPairs {
		return true
	}
	if s.contending && s.c.Rand().Float64() < 1/float64(s.khat) {
		s.c.Broadcast(wire{ID: s.myID, Data: s.payload})
	}
	s.liveness = false
	return false
}

// Poll consumes one slot outcome and stages the next transmission.
func (s *MetcalfeBoggsStep) Poll(in sim.Input) (done bool) {
	if !s.liveness {
		switch in.Slot.State {
		case sim.SlotSuccess:
			w := in.Slot.Payload.(wire)
			s.Sched = append(s.Sched, ScheduledItem{ID: w.ID, Payload: w.Data})
			if s.contending && w.ID == s.myID {
				s.contending = false
			}
			if s.khat > 1 {
				s.khat--
			}
		case sim.SlotCollision:
			s.khat *= 2
		case sim.SlotIdle:
			if s.khat > 1 {
				s.khat /= 2
			}
		}
		if s.contending {
			s.c.Busy()
		}
		s.liveness = true
		return false
	}
	if in.Slot.State == sim.SlotIdle {
		s.Done = true
		return true
	}
	s.pair++
	return s.contend()
}
