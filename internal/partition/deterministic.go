package partition

import (
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/sim"
)

// The deterministic partitioning algorithm (§3). The spanning forest is
// grown in phases; at the start of phase i every fragment (a rooted subtree
// of the MST) has size ≥ 2^i and radius ≤ 2^{i+3}-1. Each phase:
//
//	Step 1    count fragment sizes by broadcast-and-respond; a fragment is
//	          active iff ⌊log2 size⌋ equals the phase number.
//	Step 2    each active fragment finds its minimum-weight outgoing edge
//	          (MWOE) GHS-style: nodes test edges in weight order, same-
//	          fragment edges are rejected once and forever, and the minimum
//	          is convergecast to the core. The selected edges define the
//	          directed fragment graph F; mutually-selected edges are
//	          resolved toward the higher core id.
//	Step 3    three-color F by distributed Cole–Vishkin / GPS, each core
//	          simulating one vertex of F; core-to-core hops travel across
//	          fragment trees and the selected MWOE links.
//	Steps 4-5 recolor so the red vertices form an MIS of F containing every
//	          root (per internal/coloring's combinatorial specification).
//	Step 6    cut the edge out of every red non-leaf vertex of F; each
//	          resulting subtree (radius ≤ 4) becomes one new fragment whose
//	          core is the subtree root's core.
//	Step 7    physically merge: broadcast the new fragment name, then
//	          re-root every non-root fragment at its MWOE endpoint and
//	          attach it across the selected link.
//
// Steps are synchronized with the channel barrier of §7.1 (the paper's
// "synchronizer as termination detector" alternative), so no step needs a
// precomputed worst-case length. Each node runs the phase as one machine
// over a single sim.StepBarrier: a phase is a script of barrier steps, and
// the straight-line code between two steps runs on the pulse round that
// ends the first (see dstep).

// DeterministicInfo reports auxiliary facts about a deterministic run.
type DeterministicInfo struct {
	Phases   int // phases executed (may stop early when one fragment spans the graph)
	CVSteps  int // Cole–Vishkin iterations per phase
	Finished bool
}

// Payload kinds for the generic up/down value pushes.
const (
	pkColor  uint8 = iota + 1 // CV / shift-down color push (parent -> children)
	pkColor2                  // second color push within one step group
	pkChildC                  // child color push (children -> parent)
	pkRed                     // child-is-red OR push (children -> parent)
	pkChase                   // step-6 new-core pointer chase (parent -> children)
)

// Message payloads of the deterministic partition.
type (
	dCount  struct{}        // down: request subtree sizes
	dSize   struct{ N int } // up: subtree size
	dActive struct {        // down: phase activity / early-exit
		Active bool
		Done   bool
	}
	dTest  struct{ Frag graph.NodeID } // edge test (GHS)
	dReply struct {                    // test reply
		Accept bool
		Frag   graph.NodeID
	}
	dMin struct { // up: subtree minimum outgoing edge
		Valid  bool
		W      graph.Weight
		Edge   int
		Target graph.NodeID
	}
	dChosen struct{}                    // routed core -> MWOE endpoint
	dHook   struct{ Frag graph.NodeID } // across the selected edge
	dUnhook struct{}                    // across: mutual edge dropped
	dInfo   struct {                    // up: chosen node's hook report
		Mutual bool
		Other  graph.NodeID
	}
	dHasKids struct{ Has bool }  // up: fragment has surviving incoming hooks
	dDrop    struct{ Drop bool } // down: fragment dropped its out-edge
	dPushD   struct {            // parent-value push, traveling down a tree
		Kind uint8
		V    int64
	}
	dCross struct { // parent-value push, crossing an MWOE link
		Kind uint8
		V    int64
	}
	dPushU struct { // parent-value push, traveling up the child's tree
		Kind uint8
		V    int64
	}
	dChildU struct { // child-value push (down to chosen, across, then up)
		Kind uint8
		V    int64
	}
	dNewFrag struct{ Core graph.NodeID } // down: adopt new fragment name
	dReroot  struct{}                    // routed core -> chosen; flips the path
	dAttach  struct{}                    // across: sender became your tree child
)

const noWeight = graph.Weight(math.MaxInt64)

// dnode is one node's state in the deterministic partition.
type dnode struct {
	c sim.Node
	b *sim.StepBarrier

	// The running script, the index of its current step, and that step's
	// scratch state.
	script []dstep
	pc     int
	st     stepState

	frag       graph.NodeID // fragment identity == core's node id
	parentEdge int          // -1 at cores
	children   map[int]bool // tree child edge ids
	rejected   map[int]bool // edges known intra-fragment forever

	// Per-phase state; dphase is reset at the start of every phase.
	dphase
	size     int
	cand     dMin  // own accepted outgoing candidate
	best     dMin  // subtree minimum
	downEdge int   // child edge toward the subtree minimum; -1 = self
	color    int64 // color of the fragment's vertex of F, at cores

	// The values the last push steps delivered to this core: its
	// F-parent's (pushToChildren) and its F-children's (pushToParent).
	par, kid     int64
	parOK, kidOK bool
}

// stepState is the scratch state of the running barrier step, zeroed as
// each step opens.
type stepState struct {
	started, replied bool
	reports          int
	sum              int         // countStep: sizes reported from below
	val              int64       // the value a push or convergecast carries
	acc              int64       // convUp: the reports combined so far
	accSet           bool        // convUp: acc holds a report
	start            sim.Payload // bcastDown: the core's payload (nil: silent)
	keepOut          bool        // rerootStep: the core re-roots its fragment

	// The MWOE search: the sequential scan's next link, the edge of the
	// outstanding test and of a deferred one (-1: none), the tests in
	// flight (parallel variant), and whether this node's search is over.
	nextLink, awaiting, wantTest, pending int
	testDone                              bool
}

// dphase is the part of a node's state that every phase starts afresh.
type dphase struct {
	phaseIdx  int  // the paper's i
	spanning  bool // one fragment spans the network: the phase ends early
	active    bool
	outEdge   int          // fragment's selected MWOE (valid at the chosen node)
	hooks     map[int]bool // edges on which child fragments hooked into me
	hookFrom  map[int]graph.NodeID
	chosen    bool
	mutual    bool
	mutualOth graph.NodeID
	hasKids   bool // fragment has F-children (post-unhook), known at core
	hasOut    bool // fragment selected an MWOE, known at core
	dropOut   bool // fragment's out-edge dropped (mutual loser or step-6 cut)
	inF       bool
	isFRoot   bool
	newCore   graph.NodeID
}

func newDNode(c sim.Node) dnode {
	return dnode{
		c:          c,
		b:          sim.NewStepBarrier(c),
		frag:       c.ID(),
		parentEdge: -1,
		children:   make(map[int]bool),
		rejected:   make(map[int]bool),
	}
}

func (nd *dnode) isCore() bool { return nd.parentEdge == -1 }

func (nd *dnode) parentLink() int { return nd.c.LinkOf(nd.parentEdge) }

// keepsOut reports whether this node's fragment still owns a live out-edge.
// At the core it is authoritative; at the chosen node the chosen flag plus
// the broadcast drop decision give the same answer.
func (nd *dnode) keepsOut() bool {
	if nd.isCore() {
		return nd.hasOut && !nd.dropOut
	}
	return nd.chosen && !nd.dropOut
}

// sendChildren sends p on every tree child edge.
func (nd *dnode) sendChildren(p sim.Payload) {
	//mmlint:commutative sends on distinct edges; delivery sorts each inbox by (sender, edge id), so staging order never reaches transcripts
	for e := range nd.children {
		nd.c.Send(nd.c.LinkOf(e), p)
	}
}

// --- The script runner ---------------------------------------------------

// dstep is one barrier-synchronized step of a script. open runs the
// straight-line code before the step; handle is its per-round body (see
// sim.StepBarrier.Step); close runs the code after it, and then fcore at
// the cores of fragments in F (the vertices Steps 3–6 recolor). open runs
// on the pulse round that ended the previous step, close and fcore on the
// step's own, so every node runs them in the same round. All nodes share a
// script; a step keeps its state in the node's stepState.
type dstep struct {
	open   func(nd *dnode)
	handle func(nd *dnode, in sim.Input) bool
	close  func(nd *dnode)
	fcore  func(nd *dnode)
}

// run starts script on the current round; the caller then feeds this
// round's input to advance.
func (nd *dnode) run(script []dstep) {
	nd.script, nd.pc = script, 0
	nd.open()
}

// open opens the current step.
func (nd *dnode) open() {
	nd.st = stepState{}
	if o := nd.script[nd.pc].open; o != nil {
		o(nd)
	}
}

// handle runs the current step's handler.
func (nd *dnode) handle(in sim.Input) bool { return nd.script[nd.pc].handle(nd, in) }

// advance feeds one round to the running script: one turn of the barrier,
// and on a pulse the close of the finished step and the open of the next.
// It reports true once the script is over — its last step ended, or a step
// set spanning — in which case the caller goes on in this same round with
// the same input.
func (nd *dnode) advance(in sim.Input) bool {
	for nd.b.Step(in, nd.handle) {
		step := &nd.script[nd.pc]
		if step.close != nil {
			step.close(nd)
		}
		if step.fcore != nil && nd.isCore() && nd.inF {
			step.fcore(nd)
		}
		nd.pc++
		if nd.spanning || nd.pc == len(nd.script) {
			return true
		}
		nd.open()
	}
	return false
}

// --- Generic barrier steps ------------------------------------------------

// countStep runs Step 1's broadcast-and-respond: every core learns its
// fragment size. Leaves respond immediately; inner nodes respond once all
// children have.
func (nd *dnode) countStep(in sim.Input) bool {
	st := &nd.st
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dCount:
			st.started = true
			nd.sendChildren(dCount{})
		case dSize:
			st.reports++
			st.sum += p.N
		}
	}
	if nd.isCore() && !st.started {
		st.started = true
		nd.sendChildren(dCount{})
	}
	if st.started && !st.replied && st.reports == len(nd.children) {
		st.replied = true
		if nd.isCore() {
			nd.size = st.sum + 1
		} else {
			nd.c.Send(nd.parentLink(), dSize{N: st.sum + 1})
		}
	}
	return false
}

// bcastDown floods st.start from the core to its whole fragment (nil: the
// core stays silent). on is invoked at every node with each received
// message and reports whether its payload is the broadcast value to
// forward. Other message types arriving during the same barrier step (e.g.
// unhooks crossing fragments) return false and are merely observed. The
// core sees its own payload with EdgeID == -1.
func (nd *dnode) bcastDown(in sim.Input, on func(m sim.Message) bool) bool {
	st := &nd.st
	for _, m := range in.Msgs {
		if on(m) && !st.started {
			st.started = true
			nd.sendChildren(m.Payload)
		}
	}
	if nd.isCore() && !st.started {
		st.started = true
		if st.start != nil {
			on(sim.Message{From: nd.c.ID(), EdgeID: -1, Payload: st.start})
			nd.sendChildren(st.start)
		}
	}
	return false
}

// convUp aggregates int64 values from the leaves to the core with an
// associative, commutative combine, each aggregate travelling as a P: st.val
// is this node's contribution, and done receives the total at the core.
func convUp[P any](nd *dnode, in sim.Input, combine func(a, b int64) int64,
	wrap func(v int64) P, unwrap func(p P) int64, done func(total int64)) bool {
	st := &nd.st
	for _, m := range in.Msgs {
		if p, ok := m.Payload.(P); ok {
			st.reports++
			if !st.accSet {
				st.acc, st.accSet = unwrap(p), true
			} else {
				st.acc = combine(st.acc, unwrap(p))
			}
		}
	}
	if !st.replied && st.reports == len(nd.children) {
		st.replied = true
		total := st.val
		if st.accSet {
			total = combine(st.acc, st.val)
		}
		if nd.isCore() {
			done(total)
		} else {
			nd.c.Send(nd.parentLink(), wrap(total))
		}
	}
	return false
}

// pushToChildren delivers each in-F core's value st.val to the cores of all
// its F-children: broadcast down the parent's tree, forward across every
// surviving hook, then route up the child's tree to its core. Each core
// ends the step with par/parOK holding the value received from its
// F-parent (parOK is false at F-roots and outside F).
func (nd *dnode) pushToChildren(in sim.Input, kind uint8) bool {
	st := &nd.st
	relay := func(v int64) {
		nd.sendChildren(dPushD{Kind: kind, V: v})
		//mmlint:commutative sends on distinct edges; delivery sorts each inbox by (sender, edge id), so staging order never reaches transcripts
		for e := range nd.hooks {
			nd.c.Send(nd.c.LinkOf(e), dCross{Kind: kind, V: v})
		}
	}
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dPushD:
			if p.Kind == kind && !st.started {
				st.started = true
				relay(p.V)
			}
		case dCross:
			// Accept only on my fragment's live out-edge.
			if p.Kind == kind && nd.chosen && !nd.dropOut && m.EdgeID == nd.outEdge {
				if nd.isCore() {
					nd.par, nd.parOK = p.V, true
				} else {
					nd.c.Send(nd.parentLink(), dPushU{Kind: kind, V: p.V})
				}
			}
		case dPushU:
			if p.Kind == kind {
				if nd.isCore() {
					nd.par, nd.parOK = p.V, true
				} else {
					nd.c.Send(nd.parentLink(), dPushU{Kind: kind, V: p.V})
				}
			}
		}
	}
	if nd.isCore() && nd.inF && !st.started {
		st.started = true
		relay(st.val)
	}
	return false
}

// pushToParent delivers each non-root in-F core's value st.val to its
// F-parent's core: route down to the chosen node, across the MWOE, then
// aggregate up the parent's tree with the associative combine. Each core
// ends the step with kid/kidOK holding the aggregate over its F-children
// (kidOK is false if it has none).
func (nd *dnode) pushToParent(in sim.Input, kind uint8, combine func(a, b int64) int64) bool {
	st := &nd.st
	var up int64 // aggregate to forward toward the core this round
	haveUp := false
	route := func(v int64) {
		if nd.downEdge == -1 { // I am the chosen endpoint
			nd.c.Send(nd.c.LinkOf(nd.outEdge), dChildU{Kind: kind, V: v})
		} else {
			nd.c.Send(nd.c.LinkOf(nd.downEdge), dChildU{Kind: kind, V: v})
		}
	}
	for _, m := range in.Msgs {
		p, isChild := m.Payload.(dChildU)
		if !isChild || p.Kind != kind {
			continue
		}
		switch {
		case m.EdgeID == nd.parentEdge:
			// Traveling down my own fragment toward the chosen node.
			route(p.V)
		case !haveUp:
			// Arriving from a hook or a tree child: aggregate upward.
			up, haveUp = p.V, true
		default:
			up = combine(up, p.V)
		}
	}
	if nd.isCore() && nd.inF && !nd.isFRoot && nd.keepsOut() && !st.started {
		st.started = true
		if nd.downEdge == -1 && nd.chosen {
			nd.c.Send(nd.c.LinkOf(nd.outEdge), dChildU{Kind: kind, V: st.val})
		} else {
			route(st.val)
		}
	}
	if haveUp {
		if nd.isCore() {
			if !nd.kidOK {
				nd.kid, nd.kidOK = up, true
			} else {
				nd.kid = combine(nd.kid, up)
			}
		} else {
			nd.c.Send(nd.parentLink(), dChildU{Kind: kind, V: up})
		}
	}
	return false
}

// cvStepsFor returns the number of Cole–Vishkin iterations that reduce any
// coloring with values below n to values below six.
func cvStepsFor(n int) int {
	maxVal := n - 1
	steps := 0
	for maxVal > 5 {
		maxVal = 2*(bits.Len(uint(maxVal))-1) + 1
		steps++
	}
	return steps
}

// cvColor mirrors the Cole–Vishkin step of internal/coloring for the
// distributed fragment version.
func cvColor(own, father int64) int64 {
	k := bits.TrailingZeros64(uint64(own ^ father))
	return int64(k)<<1 | (own >> uint(k) & 1)
}
