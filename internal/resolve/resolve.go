// Package resolve implements the multiaccess-channel conflict-resolution
// protocols the paper builds on: the deterministic tree-splitting algorithm
// of Capetanakis (1979) used to schedule fragment cores, the randomized
// contention scheme in the style of Metcalfe–Boggs (1976), the bit-by-bit
// deterministic election sketched in §2, and the Greenberg–Ladner (1983)
// randomized size estimator of §7.4.
//
// Every protocol is a lock-step sub-routine embedded in a node program: all
// nodes must enter it in the same round; all nodes exit it in the same round
// and return identical results, because the only information used is the
// globally-visible sequence of slot resolutions.
package resolve

import (
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

// Capetanakis runs the deterministic tree-splitting resolution over the id
// space [0, idSpace). A node participates as a contender iff contending is
// true, with the given distinct id and payload. It returns the schedule —
// every contender's id and payload, identical at every node — and the input
// of the round in which the protocol ended.
//
// The protocol maintains a stack of id intervals, initially {[0, idSpace)},
// replicated at every node from the public slot outcomes: contenders in the
// top interval transmit; idle pops, success records and pops, collision
// splits the interval in two. With k contenders it uses O(k·log(idSpace/k))
// slots, the bound the paper cites for scheduling fragment cores.
func Capetanakis(c *sim.Ctx, in sim.Input, idSpace int, contending bool, myID int, payload sim.Payload) ([]ScheduledItem, sim.Input) {
	sched, _, out := CapetanakisBounded(c, in, idSpace, contending, myID, payload, 0)
	return sched, out
}

// CapetanakisBounded is Capetanakis with a slot budget: if maxSlots > 0 the
// protocol gives up after that many slots and complete reports whether the
// resolution finished. The §7.3 size-computation algorithm uses it to probe
// whether at most 2^i fragments remain after phase i.
func CapetanakisBounded(c *sim.Ctx, in sim.Input, idSpace int, contending bool, myID int, payload sim.Payload, maxSlots int) (sched []ScheduledItem, complete bool, out sim.Input) {
	s := NewCapetanakisStep(c, idSpace, contending, myID, payload, maxSlots)
	out = drive(c, in, s.Begin(), s.Poll)
	return s.Sched, s.Complete, out
}

// MetcalfeBoggs runs randomized contention resolution with paired slots:
// even slots carry data transmissions (each unscheduled contender transmits
// with probability 1/k̂), odd slots carry a liveness busy tone from every
// still-unscheduled contender. The first idle liveness slot ends the
// protocol, so termination is exact without any shared knowledge beyond the
// slot sequence. k̂ starts at max(1, estimate) and adapts multiplicatively
// (collision ×2, idle ÷2, success −1), which recovers from bad estimates.
//
// If maxPairs > 0 the protocol gives up after that many slot pairs; done
// reports whether every contender was scheduled (used by the Las Vegas
// partition verifier, §4). With an accurate estimate the expected number of
// pairs is O(k), matching the O(1) expected slots per root the paper cites.
func MetcalfeBoggs(c *sim.Ctx, in sim.Input, estimate int, contending bool, myID int, payload sim.Payload, maxPairs int) (sched []ScheduledItem, done bool, out sim.Input) {
	s := NewMetcalfeBoggsStep(c, estimate, contending, myID, payload, maxPairs)
	out = drive(c, in, s.Begin(), s.Poll)
	return s.Sched, s.Done, out
}

// Election runs the bit-by-bit deterministic leader election of §2 over the
// id space [0, idSpace): in each slot the surviving contenders whose current
// id bit is 1 transmit a busy tone; a non-idle slot eliminates the bit-0
// survivors. After ⌈log idSpace⌉ slots the unique survivor is the contender
// with the maximum id, and every node reconstructs that id from the public
// slot outcomes. A leading liveness slot distinguishes "no contenders"
// (returned as ok == false). Takes O(log idSpace) slots, the paper's
// O(log n) deterministic election.
func Election(c *sim.Ctx, in sim.Input, idSpace int, contending bool, myID int) (leader int, ok bool, out sim.Input) {
	s := NewElectionStep(c, idSpace, contending, myID)
	s.Begin()
	out = drive(c, in, false, s.Poll)
	return s.Leader, s.OK, out
}

// GreenbergLadner runs the randomized size-estimation protocol of §7.4:
// in round i every participant transmits a busy tone with probability 1/2^i;
// the protocol ends at the first idle slot, after k rounds, and every node
// returns the estimate 2^k. For k participants the estimate is within a
// constant factor of k with high probability.
func GreenbergLadner(c *sim.Ctx, in sim.Input, participating bool) (estimate int64, out sim.Input) {
	s := NewGreenbergLadnerStep(c, participating)
	s.Begin()
	out = drive(c, in, false, s.Poll)
	return s.Estimate, out
}

// drive runs a step component to completion on a blocking Ctx: done is what
// the component's Begin reported, and each later round's input goes to poll
// until it reports done. It returns the input of the round the protocol
// ended in.
func drive(c *sim.Ctx, in sim.Input, done bool, poll func(sim.Input) bool) sim.Input {
	for !done {
		in = c.Tick()
		done = poll(in)
	}
	return in
}

// RandomizedElection elects a leader among the contenders using randomness
// only: a liveness slot detects the no-contender case, Greenberg–Ladner
// estimates the contender multiplicity, then each surviving contender
// transmits with probability 1/k̂ until the first success slot — its sender
// is the leader, known to every node. Expected O(log n) slots end to end
// (the paper's §2 points to Metcalfe–Boggs-style symmetry breaking by coin
// flips; Willard's O(log log n) protocol would tighten the estimate stage).
func RandomizedElection(c *sim.Ctx, in sim.Input, contending bool) (leader int, ok bool, out sim.Input) {
	if contending {
		c.Busy()
	}
	in = c.Tick()
	if in.Slot.State == sim.SlotIdle {
		return 0, false, in
	}
	est, in := GreenbergLadner(c, in, contending)
	khat := est
	if khat < 1 {
		khat = 1
	}
	for {
		if contending && c.Rand().Float64() < 1/float64(khat) {
			c.Broadcast(wire{ID: int(c.ID())})
		}
		in = c.Tick()
		switch in.Slot.State {
		case sim.SlotSuccess:
			w := in.Slot.Payload.(wire)
			return w.ID, true, in
		case sim.SlotCollision:
			khat *= 2
		case sim.SlotIdle:
			if khat > 1 {
				khat /= 2
			}
		}
	}
}
