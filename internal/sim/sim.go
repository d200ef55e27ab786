// Package sim implements the synchronous multimedia-network simulator of the
// paper's model (§2): an arbitrary-topology point-to-point message-passing
// network combined with a slotted multiaccess collision channel.
//
// Execution proceeds in lock-step rounds. In every round each node reads the
// messages sent to it in the previous round together with the previous
// slot's resolution, computes, and then sends at most one message per
// incident link and optionally writes the channel slot. A slot resolves to
// Idle (no writers), Success (exactly one writer — its payload is heard by
// every node), or Collision (two or more writers — detected by every node).
//
// # Execution models
//
// Every protocol is a StepProgram: an init hook that builds one Machine per
// node, stepped once per round by RunStep on either of two engines:
//
//   - EngineGoroutine runs each node's machine on its own goroutine against
//     a blocking Ctx, resumed round by round from a central scheduler, and
//     steps every node every round. Every node costs two channel handoffs
//     per round, which caps practical runs at roughly 10⁴–10⁵ nodes; its
//     value is independence — it is the oracle the step engine's sleep and
//     fast-forward paths are checked against.
//
//   - EngineStep (the default) executes the machines on a sharded worker
//     pool: nodes are partitioned into contiguous shards, inbox/outbox
//     buffers are preallocated per shard and reused across rounds, message
//     delivery is double-buffered between a compute phase and a delivery
//     phase, and each round costs a single fan-out/fan-in barrier instead
//     of 2n channel handoffs. Machines may additionally call
//     StepCtx.Sleep to park until a message arrives, so protocols whose
//     activity is a travelling wavefront run in time proportional to the
//     work done, not nodes × rounds. This is the engine for million-node
//     simulations.
//
// Barrier-synchronized protocols end their steps on one StepBarrier
// (stepbarrier.go). Either way the results and metrics are identical.
//
// # Determinism contract
//
// Within a round nodes touch only their own state; each node draws from a
// private RNG derived from the master seed and its node id. A run with a
// given (graph, program, seed) therefore yields a bit-identical transcript
// — the same per-round messages, slot resolutions, results, and Metrics —
// regardless of the engine chosen, the worker count, and goroutine or
// worker scheduling. Inboxes are always delivered sorted by (sender id,
// edge id).
//
// # Fault injection
//
// Both engines apply an optional fault plan (WithFaults, or the
// process-wide DefaultFaults) at their delivery and slot-resolution choke
// points: crash-stopped nodes, dropped/delayed/duplicated messages, and
// jammed channel slots, as compiled by internal/fault. The determinism
// contract extends to faults — a fixed (graph, program, seed, plan) yields
// a bit-identical transcript on either engine at any worker count.
package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Payload is the application-defined content of a point-to-point message or
// a channel slot. The model bounds payloads by O(log n) bits plus one data
// element; programs keep payloads to a constant number of ids and weights.
type Payload any

// Message is a point-to-point message as seen by its recipient.
type Message struct {
	From    graph.NodeID
	EdgeID  int // id of the link it arrived on (index into the graph's edge list)
	Payload Payload
}

// SlotState is the resolution of one multiaccess channel slot.
type SlotState int

// Slot states, in the paper's terminology.
const (
	SlotIdle SlotState = iota + 1
	SlotSuccess
	SlotCollision
)

// String returns the paper's name for the state.
func (s SlotState) String() string {
	switch s {
	case SlotIdle:
		return "idle"
	case SlotSuccess:
		return "success"
	case SlotCollision:
		return "collision"
	default:
		return fmt.Sprintf("SlotState(%d)", int(s))
	}
}

// Slot is the globally-visible outcome of one channel slot. From and Payload
// are meaningful only when State == SlotSuccess.
type Slot struct {
	State   SlotState
	From    graph.NodeID
	Payload Payload
}

// BusyTone is the distinguished payload nodes transmit on the channel to
// keep a slot non-idle, implementing the channel-as-synchronizer barrier of
// §7.1: an idle slot is a global clock pulse.
type BusyTone struct{}

// Input is what a node receives at the start of a round: the messages sent
// to it in the previous round (sorted by sender id, then edge id) and the
// previous slot's resolution.
type Input struct {
	Round int // the round now beginning (0 for a node's first Step)
	Msgs  []Message
	Slot  Slot
}

// Metrics aggregates the paper's complexity measures over one run, plus the
// fault-injection counters (zero unless the run had a fault plan).
type Metrics struct {
	Rounds         int   // time complexity: number of rounds executed
	Messages       int64 // point-to-point message complexity
	SlotsIdle      int64
	SlotsSuccess   int64
	SlotsCollision int64
	DroppedHalted  int64 // messages addressed to already-halted nodes

	Crashed         int64 // nodes crash-stopped by fault injection
	DroppedFault    int64 // messages destroyed by link faults
	Delayed         int64 // messages deferred by delay faults
	Duplicated      int64 // extra message copies scheduled by duplicate faults
	SlotsJammed     int64 // slots forced to collision by channel jamming
	PartitionedDrop int64 // messages destroyed because a partition cut their link
	Restarted       int64 // crashed nodes revived by restart faults
	Skewed          int64 // messages deferred because their sender's clock is skewed
}

// Slots returns the total number of channel slots with at least one writer.
func (m *Metrics) Slots() int64 { return m.SlotsSuccess + m.SlotsCollision }

// Communication returns the paper's communication complexity: messages plus
// time (information received over both media).
func (m *Metrics) Communication() int64 { return m.Messages + int64(m.Rounds) }

// Add accumulates other into m (used to total multi-stage algorithms).
func (m *Metrics) Add(other *Metrics) {
	m.Rounds += other.Rounds
	m.Messages += other.Messages
	m.SlotsIdle += other.SlotsIdle
	m.SlotsSuccess += other.SlotsSuccess
	m.SlotsCollision += other.SlotsCollision
	m.DroppedHalted += other.DroppedHalted
	m.Crashed += other.Crashed
	m.DroppedFault += other.DroppedFault
	m.Delayed += other.Delayed
	m.Duplicated += other.Duplicated
	m.SlotsJammed += other.SlotsJammed
	m.PartitionedDrop += other.PartitionedDrop
	m.Restarted += other.Restarted
	m.Skewed += other.Skewed
}

// MarshalJSON renders the metrics as a flat snake_case object including the
// derived totals, the machine-readable form emitted by mmnet -json.
func (m Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Rounds          int   `json:"rounds"`
		Messages        int64 `json:"messages"`
		SlotsIdle       int64 `json:"slots_idle"`
		SlotsSuccess    int64 `json:"slots_success"`
		SlotsCollision  int64 `json:"slots_collision"`
		SlotsJammed     int64 `json:"slots_jammed"`
		Slots           int64 `json:"slots"`
		Communication   int64 `json:"communication"`
		DroppedHalted   int64 `json:"dropped_halted"`
		Crashed         int64 `json:"crashed"`
		DroppedFault    int64 `json:"dropped_fault"`
		Delayed         int64 `json:"delayed"`
		Duplicated      int64 `json:"duplicated"`
		PartitionedDrop int64 `json:"partitioned_drop"`
		Restarted       int64 `json:"restarted"`
		Skewed          int64 `json:"skewed"`
	}{
		m.Rounds, m.Messages, m.SlotsIdle, m.SlotsSuccess, m.SlotsCollision,
		m.SlotsJammed, m.Slots(), m.Communication(), m.DroppedHalted,
		m.Crashed, m.DroppedFault, m.Delayed, m.Duplicated,
		m.PartitionedDrop, m.Restarted, m.Skewed,
	})
}

// ErrMaxRounds is returned by RunStep when the round budget is exhausted
// before every node halts, which almost always indicates a livelocked
// protocol.
var ErrMaxRounds = errors.New("sim: maximum round count exceeded")

// errAborted is the sentinel panic used to unwind node goroutines when the
// run aborts; it never escapes the engine.
var errAborted = errors.New("sim: run aborted")

type config struct {
	seed      int64
	maxRounds int
	engine    Engine
	workers   int
	faults    *fault.Plan
	faultsSet bool
	sync      bool
	rec       Recorder
	tw        *TranscriptWriter
	ckpt      *CheckpointSpec
	resume    *Checkpoint
}

// caps derives the fault capabilities this run's layer supports: clock skew
// exists only under the §7.1 synchronizer.
func (c *config) caps() fault.Caps { return fault.Caps{Skew: c.sync} }

// plan resolves the run's fault plan: the WithFaults option when given,
// DefaultFaults otherwise. A nil plan means a fault-free run.
func (c *config) plan() *fault.Plan {
	if c.faultsSet {
		return c.faults
	}
	return DefaultFaults
}

// Option configures a run.
type Option func(*config)

// WithSeed sets the master seed from which every node's private RNG is
// derived. Runs with equal seeds are bit-for-bit reproducible.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithMaxRounds overrides the default round budget (a deadlock guard).
func WithMaxRounds(r int) Option { return func(c *config) { c.maxRounds = r } }

// DefaultMaxRounds, when positive, replaces the graph-derived round budget
// of every run that does not pass WithMaxRounds. Chaos experiments set it to
// bound the cost of wedged (livelocked) faulted runs; 0 keeps the generous
// per-graph default.
var DefaultMaxRounds int

// resolveMaxRounds fills the config's round budget after options applied.
func (c *config) resolveMaxRounds(g graph.Topology) {
	if c.maxRounds > 0 {
		return
	}
	if DefaultMaxRounds > 0 {
		c.maxRounds = DefaultMaxRounds
		return
	}
	c.maxRounds = defaultMaxRounds(g)
}

// WithEngine selects the execution model for this run; without it RunStep
// uses the step engine.
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithWorkers sets the step engine's worker count; 0 means DefaultWorkers
// (and, if that is also 0, GOMAXPROCS). The goroutine engine ignores it.
// By the determinism contract the worker count never changes a run's
// transcript, only its wall-clock time.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// DefaultFaults is the fault plan a run uses when no WithFaults option is
// given; nil (the default) means fault-free. Commands set it from their
// -faults/-crash/-jam flags so every run a protocol performs — including
// the inner runs of multi-stage algorithms — executes under the plan, with
// each run's fault rounds counted from its own round 0.
var DefaultFaults *fault.Plan

// WithFaults runs the simulation under the given fault plan (nil for an
// explicitly fault-free run, overriding DefaultFaults). The plan is compiled
// against the run's graph; the determinism contract extends to faults: a
// fixed (graph, program, seed, plan) yields a bit-identical transcript on
// both engines and any worker count.
func WithFaults(p *fault.Plan) Option {
	return func(c *config) { c.faults = p; c.faultsSet = true }
}

// WithSynchronizer marks the run as a §7.1 synchronizer execution
// (internal/async drives the round structure as simulated clock pulses),
// enabling the fault capabilities that only mean something where a
// synchronizer owns per-node clocks — today that is skew: rules. Plain
// round-synchronous runs reject skew plans at compile time.
func WithSynchronizer() Option { return func(c *config) { c.sync = true } }

type outMsg struct {
	edgeID  int
	to      graph.NodeID
	payload Payload
}

// Ctx is a node's handle to the network under the goroutine engine, the
// Node a machine receives there. It keeps its own per-node state and link
// index, independent of StepCtx, so the goroutine engine stays an oracle
// for the step engine. All methods must be called only from that node's
// goroutine. Methods panic on model violations (two sends on one link in a
// round, two channel writes in a round); these are programming errors, not
// runtime conditions.
type Ctx struct {
	id      graph.NodeID
	topo    graph.Topology
	adj     []graph.Half // this node's links, cached at construction
	rng     *rand.Rand   // created lazily from rngSeed on first use
	rngSeed int64

	round     int
	out       []outMsg
	sentLink  map[int]bool // edge ids written this round
	chWrite   Payload
	chPending bool

	linkByEdge map[int]int          // edge id -> local link index
	linkByPeer map[graph.NodeID]int // neighbor id -> local link index
	result     any                  // the machine's Result, recorded when it halts

	resume chan Input
	done   chan bool // true = ticked (wants next round), false = halted
}

// ID returns this node's identifier.
func (c *Ctx) ID() graph.NodeID { return c.id }

// N returns the number of nodes in the network (known to all nodes, §2).
func (c *Ctx) N() int { return c.topo.N() }

// Topo returns the immutable network topology. Programs that model the
// weaker anonymous setting must restrict themselves to Adj/Degree.
func (c *Ctx) Topo() graph.Topology { return c.topo }

// Adj returns this node's incident links sorted by ascending weight — the
// paper's "ordered list of links".
func (c *Ctx) Adj() []graph.Half { return c.adj }

// Degree returns the number of incident links.
func (c *Ctx) Degree() int { return len(c.adj) }

// Round returns the current round number (0 during the first Step).
func (c *Ctx) Round() int { return c.round }

// Rand returns this node's private deterministic RNG, created lazily so
// runs that never draw randomness pay nothing for it.
func (c *Ctx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng, _ = newNodeRand(c.rngSeed, 0)
	}
	return c.rng
}

// LinkOf returns the local link index of the given edge id.
func (c *Ctx) LinkOf(edgeID int) int {
	l, ok := c.linkByEdge[edgeID]
	if !ok {
		panic(fmt.Sprintf("sim: node %d has no link with edge id %d", c.id, edgeID))
	}
	return l
}

// Link returns the local link index leading to the given neighbor.
func (c *Ctx) Link(to graph.NodeID) (int, bool) {
	l, ok := c.linkByPeer[to]
	return l, ok
}

// Send queues a message on the link with the given local index for delivery
// at the start of the next round. At most one message may be sent per link
// per round.
func (c *Ctx) Send(link int, p Payload) {
	adj := c.Adj()
	if link < 0 || link >= len(adj) {
		panic(fmt.Sprintf("sim: node %d send on link %d of %d", c.id, link, len(adj)))
	}
	h := adj[link]
	if c.sentLink[int(h.EdgeID)] {
		panic(fmt.Sprintf("sim: node %d sent twice on edge %d in round %d", c.id, h.EdgeID, c.round))
	}
	c.sentLink[int(h.EdgeID)] = true
	c.out = append(c.out, outMsg{edgeID: int(h.EdgeID), to: h.To, payload: p})
}

// SendTo queues a message to the given neighbor.
func (c *Ctx) SendTo(to graph.NodeID, p Payload) {
	l, ok := c.Link(to)
	if !ok {
		panic(fmt.Sprintf("sim: node %d is not adjacent to %d", c.id, to))
	}
	c.Send(l, p)
}

// Broadcast writes p to the current channel slot. At most one write per
// round; the slot resolves to success only if this node is the sole writer.
func (c *Ctx) Broadcast(p Payload) {
	if c.chPending {
		panic(fmt.Sprintf("sim: node %d wrote the channel twice in round %d", c.id, c.round))
	}
	c.chPending = true
	c.chWrite = p
}

// Busy transmits a busy tone on the channel this round (§7.1 barrier).
func (c *Ctx) Busy() { c.Broadcast(BusyTone{}) }

// SentThisRound reports whether this node queued any point-to-point message
// in the current round.
func (c *Ctx) SentThisRound() bool { return len(c.out) > 0 }

// Sleep is a no-op: the goroutine engine steps every node every round.
func (c *Ctx) Sleep() {}

// SleepUntilPulse is a no-op, like Sleep.
func (c *Ctx) SleepUntilPulse() {}

// Failf aborts the run with an error attributed to this node, exactly as
// StepCtx.Failf does.
func (c *Ctx) Failf(format string, args ...any) {
	panic(failError{err: fmt.Errorf(format, args...)})
}

func (c *Ctx) wroteChannel() bool { return c.chPending }

// tick commits the current round's sends and channel write, blocks until
// every node has committed, and returns the next round's input.
func (c *Ctx) tick() Input {
	c.done <- true
	in, ok := <-c.resume
	if !ok {
		panic(errAborted)
	}
	c.round = in.Round
	return in
}

// Result holds the outcome of a run.
type Result struct {
	Metrics Metrics
	Results []any // per-node values of Machine.Result (nil for crashed nodes)
}

// newCtx builds the goroutine engine's blocking per-node handle. The node's
// adjacency is cached up front (the stored form hands out its slice for
// free; implicit forms compute it once per node), so Adj/Degree stay O(1)
// per call.
func newCtx(t graph.Topology, id graph.NodeID, seed int64) *Ctx {
	adj := t.Adj(id)
	ctx := &Ctx{
		id:         id,
		topo:       t,
		adj:        adj,
		rngSeed:    nodeSeed(seed, id),
		sentLink:   make(map[int]bool),
		linkByEdge: make(map[int]int, len(adj)),
		linkByPeer: make(map[graph.NodeID]int, len(adj)),
		resume:     make(chan Input, 1),
		done:       make(chan bool, 1),
	}
	for l, h := range adj {
		ctx.linkByEdge[int(h.EdgeID)] = l
		ctx.linkByPeer[h.To] = l
	}
	return ctx
}

// pendingMsg is one delayed or duplicated message held by the goroutine
// engine until its fault-assigned delivery round.
type pendingMsg struct {
	to  graph.NodeID
	msg Message
}

// runGoroutine is the oracle engine: one goroutine per node, resumed round
// by round from a single scheduler loop, stepping its machine every round.
func runGoroutine(g graph.Topology, program StepProgram, cfg config) (*Result, error) {
	if cfg.ckpt != nil || cfg.resume != nil {
		// Goroutine stacks cannot be serialized; checkpointing is a step
		// engine capability (Resume always runs the step engine).
		return nil, ErrNotCheckpointable
	}
	inj, err := fault.CompileFor(cfg.plan(), g, cfg.caps())
	if err != nil {
		return nil, err
	}
	n := g.N()
	ctxs := make([]*Ctx, n)
	machines := make([]Machine, n)
	for v := 0; v < n; v++ {
		ctxs[v] = newCtx(g, graph.NodeID(v), cfg.seed)
		if machines[v], err = initMachine(program, ctxs[v]); err != nil {
			return nil, err
		}
	}
	rec := cfg.recorder()
	if rec != nil {
		rec.RunStart(n, EngineGoroutine, 1, 1)
	}
	tw := cfg.transcript()
	if tw != nil {
		tw.begin(n, cfg.seed, cfg.planString(), "")
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		errNode  graph.NodeID
		firstErr error
	)
	// Errors compete only within one round (the run aborts at its end), so
	// keeping the lowest-node error makes the reported failure independent
	// of goroutine scheduling — part of the determinism contract, mirrored
	// by the step engine. Engine-level errors record as node -1.
	recordErr := func(node graph.NodeID, err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if firstErr == nil || node < errNode {
			errNode, firstErr = node, err
		}
	}

	// spawn launches one node goroutine (initial start and restart revivals
	// share it): one Step per round, each tick's input fed to the next, the
	// result recorded at the halt. A panic records the node's error, and the
	// scheduler always gets a final halt signal.
	spawn := func(ctx *Ctx, m Machine) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if err := nodeFailure(ctx.id, r); err != nil {
						recordErr(ctx.id, err)
					}
				}
				ctx.done <- false
			}()
			for in := (Input{}); !m.Step(in); in = ctx.tick() {
			}
			ctx.result = m.Result()
		}()
	}
	for v := 0; v < n; v++ {
		spawn(ctxs[v], machines[v])
	}

	res := &Result{Results: make([]any, n)}
	met := &res.Metrics
	inboxes := make([][]Message, n)
	var pending map[int][]pendingMsg // delayed messages by delivery round
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	aliveCount := n
	var (
		crashed     []bool // fault-crashed (not normally-halted) nodes, revivable by restart
		roundBase   []int  // global round of each node's latest incarnation's initial compute
		incarnation []int  // how many times each node has been revived
	)
	if inj.HasRestarts() {
		crashed = make([]bool, n)
		roundBase = make([]int, n)
		incarnation = make([]int, n)
	}

	for round := 0; ; round++ {
		// Revive the crashed nodes whose restart is scheduled for this
		// round: a fresh context (reset protocol state, incarnation-keyed
		// RNG stream) performs its initial compute alongside everyone
		// else's compute round. Restart only undoes a crash — a node that
		// halted on its own stays halted.
		for _, v := range inj.RestartsAt(round) {
			if alive[v] || !crashed[v] {
				continue
			}
			crashed[v] = false
			incarnation[v]++
			roundBase[v] = round
			ctx := newCtx(g, v, cfg.seed)
			ctx.rngSeed = nodeSeedAt(cfg.seed, v, incarnation[v])
			m, err := initMachine(program, ctx)
			if err != nil {
				// The revival failed to build: the node stays down for
				// good and the run aborts at the end of this round.
				recordErr(v, err)
				continue
			}
			ctxs[v] = ctx
			alive[v] = true
			aliveCount++
			met.Restarted++
			spawn(ctx, m)
		}
		var tStep, tDeliver int64
		if rec != nil {
			tStep = rec.BeginPhase(PhaseStep, 0)
		}
		// Wait for every live node to either tick or halt. After receiving a
		// node's done, reading its Ctx fields is race-free.
		for v, ctx := range ctxs {
			if !alive[v] {
				continue
			}
			if ticked := <-ctx.done; !ticked {
				alive[v] = false
				aliveCount--
			}
		}

		met.Rounds = round + 1
		if rec != nil {
			rec.EndPhase(PhaseStep, 0, round, tStep)
			tDeliver = rec.BeginPhase(PhaseDeliver, 0)
		}

		// Resolve the channel slot.
		var writer *Ctx
		writers := 0
		for _, ctx := range ctxs {
			if ctx.chPending {
				writers++
				writer = ctx
			}
		}
		slot := Slot{State: SlotIdle}
		if inj.Jammed(round + 1) {
			// A jammed slot hides any writer behind a forced collision.
			met.SlotsJammed++
			slot = Slot{State: SlotCollision}
		} else {
			switch {
			case writers == 0:
				met.SlotsIdle++
			case writers == 1:
				met.SlotsSuccess++
				slot = Slot{State: SlotSuccess, From: writer.id, Payload: writer.chWrite}
			default:
				met.SlotsCollision++
				slot = Slot{State: SlotCollision}
			}
		}

		// Deliver point-to-point messages: delayed ones due this round
		// first, then this round's sends, each through the fault hook.
		for i := range inboxes {
			inboxes[i] = nil
		}
		if late := pending[round+1]; len(late) > 0 {
			delete(pending, round+1)
			for _, pm := range late {
				inboxes[pm.to] = append(inboxes[pm.to], pm.msg)
			}
		}
		msgFaults := inj.HasMsgFaults()
		for _, ctx := range ctxs {
			for _, m := range ctx.out {
				met.Messages++
				msg := Message{From: ctx.id, EdgeID: m.edgeID, Payload: m.payload}
				if msgFaults {
					switch fate, lag := inj.MsgFate(m.edgeID, ctx.id, m.to, round+1); fate {
					case fault.DropMsg:
						met.DroppedFault++
						continue
					case fault.PartitionDrop:
						met.PartitionedDrop++
						continue
					case fault.DelayMsg, fault.DupMsg, fault.SkewMsg:
						if pending == nil {
							pending = make(map[int][]pendingMsg)
						}
						pending[round+1+lag] = append(pending[round+1+lag], pendingMsg{to: m.to, msg: msg})
						if fate == fault.DelayMsg {
							met.Delayed++
							continue
						}
						if fate == fault.SkewMsg {
							met.Skewed++
							continue
						}
						met.Duplicated++
					}
				}
				inboxes[m.to] = append(inboxes[m.to], msg)
			}
			// Reset per-round node state. Safe: live nodes are blocked in
			// tick; halted nodes have returned.
			ctx.out = ctx.out[:0]
			clear(ctx.sentLink)
			ctx.chPending = false
			ctx.chWrite = nil
		}
		for i := range inboxes {
			if box := inboxes[i]; len(box) > 1 {
				sortInbox(box)
			}
		}

		// Crash-stop the nodes scheduled to fail before observing round+1:
		// unwind the goroutine exactly as an abort does, without recording
		// an error. Messages addressed to them join the halted-drop count.
		for _, v := range inj.CrashesAt(round + 1) {
			if !alive[v] {
				continue
			}
			close(ctxs[v].resume)
			<-ctxs[v].done
			alive[v] = false
			aliveCount--
			met.Crashed++
			if crashed != nil {
				crashed[v] = true
			}
		}

		if aliveCount == 0 {
			if rec != nil {
				rec.EndPhase(PhaseDeliver, 0, round, tDeliver)
				rec.RoundEnd(round+1, aliveCount, slot.State, met)
			}
			break
		}

		errMu.Lock()
		failed := firstErr != nil
		errMu.Unlock()
		if !failed && round+1 > cfg.maxRounds {
			recordErr(-1, fmt.Errorf("%w: budget %d", ErrMaxRounds, cfg.maxRounds))
			failed = true
		}
		if failed {
			// Abort: unwind every live goroutine and drain their final dones.
			for v, ctx := range ctxs {
				if alive[v] {
					close(ctx.resume)
				}
			}
			for v, ctx := range ctxs {
				if alive[v] {
					<-ctx.done
					alive[v] = false
				}
			}
			if rec != nil {
				rec.EndPhase(PhaseDeliver, 0, round, tDeliver)
				rec.RoundEnd(round+1, 0, slot.State, met)
			}
			break
		}

		// Count the messages addressed to halted nodes before the round's
		// sample is taken, so each round's DroppedHalted lands in its own
		// series delta. Only the continuing path accrues them — a run that
		// ends this round never observed those inboxes, exactly as before.
		for v := range ctxs {
			if !alive[v] && len(inboxes[v]) > 0 {
				met.DroppedHalted += int64(len(inboxes[v]))
				inboxes[v] = nil
			}
		}
		if tw != nil {
			tw.goroutineRound(round+1, slot, aliveCount, met, inboxes)
		}
		if rec != nil {
			rec.EndPhase(PhaseDeliver, 0, round, tDeliver)
			rec.RoundEnd(round+1, aliveCount, slot.State, met)
		}

		for v, ctx := range ctxs {
			if !alive[v] {
				continue
			}
			in := Input{Round: round + 1, Msgs: inboxes[v], Slot: slot}
			if roundBase != nil {
				// A revived incarnation counts rounds from its own initial
				// compute: global round roundBase[v] is its local round 0.
				in.Round -= roundBase[v]
			}
			ctx.resume <- in
		}
	}

	wg.Wait()
	if rec != nil {
		rec.RunEnd(met)
	}
	for v, ctx := range ctxs {
		res.Results[v] = ctx.result
	}
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	if tw != nil {
		tw.finalFrame(met, res.Results, err)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// goroutineRound emits one goroutine-engine round frame: the round's slot,
// live-node count, cumulative metrics, and a digest of every nonempty inbox
// about to be handed to the nodes.
func (tw *TranscriptWriter) goroutineRound(round int, slot Slot, alive int, met *Metrics, inboxes [][]Message) {
	f := RoundFrame{Round: round, Slot: slot.State, Alive: alive, Met: *met}
	if slot.State == SlotSuccess {
		f.From = slot.From
		f.SlotDigest = payloadDigest(slot.Payload)
	}
	f.Nodes = tw.nodes[:0]
	for v := range inboxes {
		if len(inboxes[v]) == 0 {
			continue
		}
		var d uint64
		d, tw.scratch = inboxDigest(inboxes[v], tw.scratch)
		f.Nodes = append(f.Nodes, NodeDigest{Node: graph.NodeID(v), Digest: d})
	}
	tw.nodes = f.Nodes
	tw.WriteRound(&f)
}

// finalFrame closes an engine's transcript with the run's outcome.
func (tw *TranscriptWriter) finalFrame(met *Metrics, results []any, runErr error) {
	f := FinalFrame{Met: *met, ResultsDigest: resultsDigest(results), N: len(results)}
	if runErr != nil {
		f.Err = runErr.Error()
	}
	tw.WriteFinal(&f)
}

// defaultMaxRounds budgets generously above any algorithm in this module:
// all are O(n · polylog n) rounds at worst.
func defaultMaxRounds(g graph.Topology) int {
	return 200*g.N() + 20_000
}
