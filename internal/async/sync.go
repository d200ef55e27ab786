package async

// sync.go runs a RoundFunc algorithm on the synchronous sim engines through
// the §7.1 synchronizer protocol itself: every algorithm message is
// acknowledged, a node transmits the busy tone while any of its messages is
// unacknowledged, and an idle slot — heard by everyone in the same round —
// is the clock pulse that starts the next simulated synchronous round. This
// is the protocol the event-driven engine in async.go models with real
// (seeded) delays; here delivery is exactly one round, so each simulated
// round costs at most three slots and Corollary 4's ≤2× message overhead is
// visible directly in the metrics. On the step engine the machine parks
// passive nodes with the barrier's pulse-sleep.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Synchronizer payloads.
type (
	sMsg struct{ P any } // an algorithm message
	sAck struct{}        // its §7.1 acknowledgement
)

// SyncResult is the outcome of a synchronizer-driven run.
type SyncResult struct {
	Rounds  int   // simulated synchronous rounds consumed (max over nodes)
	AlgMsgs int64 // algorithm messages
	AckMsgs int64 // synchronizer acknowledgements
	Metrics sim.Metrics
}

// Overhead returns the message overhead factor of the synchronizer
// (Corollary 4 bounds it by 2).
func (r *SyncResult) Overhead() float64 {
	if r.AlgMsgs == 0 {
		return 1
	}
	return float64(r.AlgMsgs+r.AckMsgs) / float64(r.AlgMsgs)
}

// syncPort adapts a sim node handle to the Port a RoundFunc drives.
type syncPort struct {
	id      graph.NodeID
	g       graph.Topology
	send    func(link int, p sim.Payload)
	halted  bool
	algSent int64
	ackSent int64
	pending int // staged sends awaiting acknowledgement
}

func (p *syncPort) ID() graph.NodeID  { return p.id }
func (p *syncPort) N() int            { return p.g.N() }
func (p *syncPort) Adj() []graph.Half { return p.g.Adj(p.id) }
func (p *syncPort) Degree() int       { return p.g.Degree(p.id) }
func (p *syncPort) Halt()             { p.halted = true }

func (p *syncPort) Send(link int, payload any) {
	p.send(link, sMsg{P: payload})
	p.algSent++
	p.pending++
}

func (p *syncPort) SendTo(to graph.NodeID, payload any) {
	for l, h := range p.Adj() {
		if h.To == to {
			p.Send(l, payload)
			return
		}
	}
	panic(fmt.Sprintf("async: node %d is not adjacent to %d", p.id, to))
}

// syncState is the per-node synchronizer state. One barrier step spans one
// simulated round: the round function fires on the step's entry round,
// acknowledgements flow during it, and the pulse that ends it starts the
// next simulated round.
type syncState struct {
	port        *syncPort
	rf          RoundFunc
	maxRounds   int
	round       int
	invoked     bool
	outstanding int
	inbox       []Message
	nextInbox   []Message
}

func newSyncState(port *syncPort, rf RoundFunc, maxRounds int) *syncState {
	return &syncState{port: port, rf: rf, maxRounds: maxRounds}
}

// handle is the barrier handler: acknowledge arrivals, collect the
// next round's inbox, fire the round function once per step, and stay busy
// while any own message is unacknowledged.
func (st *syncState) handle(linkOf func(edgeID int) int, step sim.Input) bool {
	for _, m := range step.Msgs {
		switch p := m.Payload.(type) {
		case sMsg:
			st.nextInbox = append(st.nextInbox, Message{From: m.From, EdgeID: m.EdgeID, Payload: p.P})
			st.port.send(linkOf(m.EdgeID), sAck{})
			st.port.ackSent++
		case sAck:
			st.outstanding--
		}
	}
	if !st.invoked {
		st.invoked = true
		st.port.pending = 0
		st.rf(st.port, st.round, st.inbox)
		st.outstanding += st.port.pending
	}
	return st.outstanding > 0
}

// boundary advances the simulated clock at a pulse; done means the node
// halted. It returns an error when the pulse budget is exhausted.
func (st *syncState) boundary() (done bool, err error) {
	st.round++
	st.inbox, st.nextInbox = st.nextInbox, nil
	if st.port.halted {
		return true, nil
	}
	if st.round > st.maxRounds {
		return false, fmt.Errorf("%w: %d", ErrRoundBudget, st.maxRounds)
	}
	st.invoked = false
	return false, nil
}

func (st *syncState) record() any {
	return [3]int64{st.port.algSent, st.port.ackSent, int64(st.round)}
}

// syncMachine runs one node of the synchronized algorithm.
type syncMachine struct {
	c      sim.Node
	b      *sim.StepBarrier
	st     *syncState
	result any
}

func (m *syncMachine) Step(in sim.Input) bool {
	handle := func(step sim.Input) bool { return m.st.handle(m.c.LinkOf, step) }
	if !m.b.Step(in, handle) {
		return false
	}
	done, err := m.st.boundary()
	if err != nil {
		m.c.Failf("%w", err)
	}
	if done {
		m.result = m.st.record()
		return true
	}
	// The next simulated round's function fires in the pulse round.
	m.b.Step(in, handle)
	return false
}

func (m *syncMachine) Result() any { return m.result }

func syncStepProgram(g graph.Topology, maxRounds int, factory func(id graph.NodeID) RoundFunc) sim.StepProgram {
	return func(c sim.Node) sim.Machine {
		port := &syncPort{id: c.ID(), g: g, send: c.Send}
		return &syncMachine{
			c:  c,
			b:  sim.NewStepBarrier(c),
			st: newSyncState(port, factory(c.ID()), maxRounds),
		}
	}
}

// Sync executes the synchronous algorithm produced by factory on
// sim.DefaultEngine, driven by the §7.1 channel synchronizer. factory is
// called once per node and returns that node's RoundFunc; maxRounds bounds
// the number of simulated rounds.
func Sync(g graph.Topology, seed int64, maxRounds int, factory func(id graph.NodeID) RoundFunc) (*SyncResult, error) {
	// WithSynchronizer unlocks skew: rules — clock skew is meaningful only
	// at this layer, where a slot is a tick of the §7.1 clock.
	res, err := sim.RunStep(g, syncStepProgram(g, maxRounds, factory),
		sim.WithSeed(seed), sim.WithSynchronizer(), sim.WithEngine(sim.DefaultEngine))
	if err != nil {
		return nil, err
	}
	out := &SyncResult{Metrics: res.Metrics}
	for _, r := range res.Results {
		rec, ok := r.([3]int64)
		if !ok {
			continue // crash-stopped before recording
		}
		out.AlgMsgs += rec[0]
		out.AckMsgs += rec[1]
		if int(rec[2]) > out.Rounds {
			out.Rounds = int(rec[2])
		}
	}
	return out, nil
}
