package sim

// Channel-as-synchronizer barrier (§7.1). The paper notes that its
// synchronizer "can serve as a mechanism to detect the global termination of
// each phase and each step in a phase"; this file implements that mechanism
// for the synchronous engines.
//
// Protocol: while a node is active in the current step — it sent a message
// this round or declares pending work — it transmits a busy tone on the
// channel. Because delivery is synchronous (exactly one round), a sender's
// busy tone covers its in-flight message: if the slot of round t is idle,
// then no message was sent at round t and no node was active at round t, so
// when all nodes observe the idle slot at round t+1 the step has globally
// terminated. The idle slot is the paper's "clock pulse".

// IsPulse reports whether in carries a barrier pulse (the previous slot was
// idle).
func (in Input) IsPulse() bool { return in.Slot.State == SlotIdle }

// StepBarrier runs the barrier round by round. A machine that runs a
// barrier-synchronized step feeds each round's Input through Step; the
// barrier transmits the busy tone while the node is active or has a message
// in flight and reports true on the round that carries the global pulse,
// which by the argument above means the step has terminated at every node.
// All nodes see the pulse in the same round. Its input carries no messages
// (except ones a fault plan delayed) and must be handed to whatever the
// machine does next: one barrier serves a whole sequence of steps, each
// started by calling Step with a new handler on the previous step's pulse
// round.
//
// A node that is passive in a round — handle reported inactive and staged
// neither sends nor a channel write — is parked with SleepUntilPulse: within
// a barrier step such a node can only be reactivated by a message or by the
// step's global termination, so skipping the busy slots in between changes
// nothing observable and makes whole phases cost O(work) instead of
// O(n · rounds). Handlers must honor that contract: all state changes of a
// passive node must be driven by incoming messages, never by counting
// rounds.
type StepBarrier struct {
	c     Node
	armed bool
}

// NewStepBarrier returns a barrier for the node. The zero value is not
// usable; a fresh barrier (or one that has just fired) starts a new step.
func NewStepBarrier(c Node) *StepBarrier { return &StepBarrier{c: c} }

// Step advances the barrier-synchronized step by one round. handle performs
// the node's sends for the round and reports whether the node is still
// active; nodes that sent are treated as active regardless, which
// guarantees no message is in flight when the barrier fires. It returns
// true — without calling handle — on the round the pulse arrives, leaving
// the barrier reset for the next step. On a false return the machine must
// return from its own Step immediately (the node may have been parked).
//
//mmlint:noalloc
func (b *StepBarrier) Step(in Input, handle func(Input) bool) (done bool) {
	if b.armed && in.IsPulse() {
		b.armed = false
		return true
	}
	active := handle(in)
	switch {
	case active || b.c.SentThisRound():
		b.c.Busy()
	case !b.c.wroteChannel():
		b.c.SleepUntilPulse()
	}
	b.armed = true
	return false
}
