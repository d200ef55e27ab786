package resolve

// step.go holds the conflict-resolution sub-protocols themselves, each a
// per-round component a sim.Machine embeds. The blocking forms in
// resolve.go are thin loops over these components, so every protocol's
// slot logic is written once.
//
// Usage pattern: the machine calls Begin once, in the round the protocol
// starts (its broadcasts are staged in that round), then feeds every
// subsequent round's Input through Poll until it reports done. When Poll
// reports done the machine continues its own next stage in the same Step
// call with the same Input. The only information consumed is the public
// slot sequence, so every node finishes in the same round with the same
// result.

import (
	"repro/internal/sim"
)

// interval is one id range on the Capetanakis splitting stack.
type interval struct{ lo, hi int }

// CapetanakisStep is the Capetanakis tree-splitting resolution (see
// CapetanakisBounded). After Poll reports done, Sched holds the schedule
// and Complete reports whether the resolution finished within the slot
// budget.
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

// NewCapetanakisStep returns the component in its pre-Begin state. The
// parameters mirror CapetanakisBounded; maxSlots <= 0 means no budget.
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

// ElectionStep is the bit-by-bit deterministic leader election of §2 (see
// Election). After Poll reports done, Leader and OK hold the result.
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
func (s *ElectionStep) Begin() {
	if s.contending {
		s.c.Busy()
	}
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

// GreenbergLadnerStep is the §7.4 randomized size estimator (see
// GreenbergLadner). After Poll reports done, Estimate holds 2^k. Probe is
// the index of the probe awaiting its outcome, exported with Estimate so a
// checkpointing machine can save and restore the component.
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
func (s *GreenbergLadnerStep) Begin() { s.transmit() }

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

// MetcalfeBoggsStep is randomized contention resolution with paired
// data/liveness slots (see MetcalfeBoggs). After Poll reports
// done, Sched holds the schedule and Done whether every contender was
// scheduled within the pair budget.
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

// NewMetcalfeBoggsStep returns the component in its pre-Begin state; the
// parameters mirror MetcalfeBoggs.
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
