package partition

import (
	"math/bits"

	"repro/internal/coloring"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/sim"
)

// openMWOE opens Step 2: nodes of active fragments test their incident
// edges in ascending weight order (GHS test/accept/reject — a rejected edge
// is intra-fragment forever and never tested again), and the minimum
// accepted edge is convergecast to the core, recording down-pointers for
// later routing. Every node, active or not, answers tests against its
// current fragment. One barrier step, run by mwoeStep.
func (nd *dnode) openMWOE() {
	nd.cand = dMin{Valid: false, W: noWeight}
	nd.best = dMin{Valid: false, W: noWeight}
	nd.downEdge = -1
	nd.st.awaiting, nd.st.wantTest = -1, -1
	nd.st.testDone = !nd.active
	if nd.active {
		nd.nextTest()
	}
}

// nextTest moves the sequential scan to the next untested, non-rejected,
// non-tree edge.
func (nd *dnode) nextTest() {
	st := &nd.st
	for adj := nd.c.Adj(); st.nextLink < len(adj); {
		h := adj[st.nextLink]
		st.nextLink++
		if nd.rejected[int(h.EdgeID)] || int(h.EdgeID) == nd.parentEdge || nd.children[int(h.EdgeID)] {
			continue
		}
		st.wantTest = int(h.EdgeID)
		return
	}
	st.testDone = true // exhausted: no outgoing candidate
}

func (nd *dnode) mwoeStep(in sim.Input) bool {
	c, st := nd.c, &nd.st
	var repliedOn map[int]bool // edges that carried a reply this round
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dTest:
			c.Send(c.LinkOf(m.EdgeID), dReply{Accept: p.Frag != nd.frag, Frag: nd.frag})
			if repliedOn == nil {
				repliedOn = make(map[int]bool, 1)
			}
			repliedOn[m.EdgeID] = true
		case dReply:
			if m.EdgeID != st.awaiting {
				continue
			}
			st.awaiting = -1
			if p.Accept {
				e := c.Topo().Edge(m.EdgeID)
				nd.cand = dMin{Valid: true, W: e.Weight, Edge: m.EdgeID, Target: p.Frag}
				st.testDone = true
			} else {
				nd.rejected[m.EdgeID] = true
				nd.nextTest()
			}
		case dMin:
			nd.report(m.EdgeID, p)
		}
	}
	// Flush a deferred test unless this round's reply already used the
	// link (one message per link per round).
	if st.wantTest != -1 && !repliedOn[st.wantTest] {
		c.Send(c.LinkOf(st.wantTest), dTest{Frag: nd.frag})
		st.awaiting = st.wantTest
		st.wantTest = -1
	}
	nd.reportMWOE()
	return (nd.active && !st.replied) || st.wantTest != -1
}

// report folds a child's subtree minimum into the MWOE search.
func (nd *dnode) report(edgeID int, p dMin) {
	nd.st.reports++
	if p.Valid && p.W < nd.best.W {
		nd.best = p
		nd.downEdge = edgeID
	}
}

// reportMWOE passes the subtree minimum up once this node's own search is
// over and every child reported.
func (nd *dnode) reportMWOE() {
	st := &nd.st
	if st.replied || !st.testDone || st.reports != len(nd.children) {
		return
	}
	st.replied = true
	if nd.cand.Valid && nd.cand.W < nd.best.W {
		nd.best = nd.cand
		nd.downEdge = -1
	}
	if !nd.isCore() {
		nd.c.Send(nd.parentLink(), nd.best)
	}
}

// chooseAndHookStep is Step 2b: route CHOSEN from the core along the
// down-pointers to the MWOE endpoint, which hooks across the selected edge.
// Hooks from other fragments arrive during the same barrier step and are
// absorbed here.
func (nd *dnode) chooseAndHookStep(in sim.Input) bool {
	c := nd.c
	route := func() {
		if nd.downEdge == -1 {
			nd.chosen = true
			nd.outEdge = nd.best.Edge
			c.Send(c.LinkOf(nd.outEdge), dHook{Frag: nd.frag})
		} else {
			c.Send(c.LinkOf(nd.downEdge), dChosen{})
		}
	}
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dChosen:
			route()
		case dHook:
			nd.hooks[m.EdgeID] = true
			nd.hookFrom[m.EdgeID] = p.Frag
		}
	}
	if nd.isCore() && nd.hasOut && !nd.st.started {
		nd.st.started = true
		route()
	}
	return false
}

// beginPhase resets the per-phase state and starts phase phaseIdx of
// script on the current round.
func (nd *dnode) beginPhase(script []dstep, phaseIdx int) {
	nd.dphase = dphase{
		phaseIdx: phaseIdx, outEdge: -1, mutualOth: -1, newCore: -1,
		hooks: make(map[int]bool), hookFrom: make(map[int]graph.NodeID),
	}
	nd.run(script)
}

// Opens of the push steps: the value carried, and a fresh result slot.
func (nd *dnode) openPushDown(v int64) { nd.st.val, nd.par, nd.parOK = v, 0, false }
func (nd *dnode) openPushUp(v int64)   { nd.st.val, nd.kid, nd.kidOK = v, 0, false }

// phaseScript returns one complete phase as a script of barrier steps,
// shared read-only by every node of a run. A phase ends early, after its
// second step, once one fragment spans the whole network.
func phaseScript(cvIters int, parallelMWOE bool) []dstep {
	mwoe := dstep{open: (*dnode).openMWOE, handle: (*dnode).mwoeStep}
	if parallelMWOE {
		mwoe = dstep{open: (*dnode).openMWOEParallel, handle: (*dnode).mwoeStepParallel}
	}
	mwoe.close = func(nd *dnode) {
		if nd.isCore() {
			nd.hasOut = nd.active && nd.best.Valid
		}
	}
	s := []dstep{
		// Step 1: count sizes; broadcast activity (⌊log2 size⌋ == phase)
		// and the early-exit flag (a fragment spanning the whole graph).
		{handle: (*dnode).countStep},
		{open: (*dnode).openActive, handle: (*dnode).activeStep},
		// Step 2: minimum-weight outgoing edges.
		mwoe,
		// Step 2b: route CHOSEN; the endpoint hooks across the MWOE.
		{handle: (*dnode).chooseAndHookStep},
		{open: (*dnode).openMutual, handle: (*dnode).mutualStep},
		{open: (*dnode).openDrop, handle: (*dnode).dropStep},
		{open: (*dnode).openHasKids, handle: (*dnode).hasKidsStep, close: func(nd *dnode) {
			if nd.isCore() {
				keepOut := nd.hasOut && !nd.dropOut
				nd.inF = keepOut || nd.hasKids
				nd.isFRoot = nd.inF && !keepOut
			}
			nd.color = int64(nd.frag)
		}},
	}

	// Step 3: distributed GPS three-coloring of F. Initial colors are core
	// ids; cvIters Cole–Vishkin rounds reduce them below six; three
	// shift-down/recolor rounds eliminate colors 5, 4 and 3.
	openColor := func(nd *dnode) { nd.openPushDown(nd.color) }
	pushColor := func(nd *dnode, in sim.Input) bool { return nd.pushToChildren(in, pkColor) }
	for range cvIters {
		s = append(s, dstep{open: openColor, handle: pushColor, fcore: func(nd *dnode) {
			father := nd.color ^ 1 // F-roots pretend bit 0 differs
			if nd.parOK {
				father = nd.par
			}
			nd.color = cvColor(nd.color, father)
		}})
	}
	for drop := int64(5); drop >= 3; drop-- {
		s = append(s,
			// Shift-down: take the F-parent's color; roots take the
			// smallest color different from their own.
			dstep{open: openColor, handle: pushColor, fcore: func(nd *dnode) {
				if nd.parOK {
					nd.color = nd.par
				} else {
					nd.color = smallestColorExcept(nd.color)
				}
			}},
			// Children push their (uniform) post-shift color up; parents
			// push their post-shift color down; vertices colored drop pick
			// the smallest free color in {0,1,2}.
			dstep{open: func(nd *dnode) { nd.openPushUp(nd.color) }, handle: func(nd *dnode, in sim.Input) bool {
				return nd.pushToParent(in, pkChildC, func(a, b int64) int64 { return a })
			}},
			dstep{open: openColor, handle: pushColor, fcore: func(nd *dnode) {
				if nd.color != drop {
					return
				}
				var forbidden [8]bool
				if nd.parOK && nd.par >= 0 && nd.par < 8 {
					forbidden[nd.par] = true
				}
				if nd.kidOK && nd.kid >= 0 && nd.kid < 8 {
					forbidden[nd.kid] = true
				}
				for x := int64(0); x < 3; x++ {
					if !forbidden[x] {
						nd.color = x
						break
					}
				}
			}},
		)
	}

	// Step 4: make every F-root red while keeping the coloring legal
	// (children need their parent's pre-step color and root status).
	s = append(s, dstep{
		open:   func(nd *dnode) { nd.openPushDown(encodeRootColor(nd.isFRoot, nd.color)) },
		handle: pushColor,
		fcore: func(nd *dnode) {
			if !nd.parOK {
				nd.color = int64(coloring.Red) // F-root becomes (or stays) red
				return
			}
			parentIsRoot, parentColor := decodeRootColor(nd.par)
			if parentIsRoot && parentColor == int64(coloring.Red) {
				nd.color = thirdColor(int64(coloring.Red), nd.color)
			} else {
				nd.color = parentColor
			}
		},
	})

	// Step 5: promote blue then green vertices with no red neighbor.
	for _, promote := range []int64{int64(coloring.Blue), int64(coloring.Green)} {
		s = append(s, dstep{open: openColor, handle: pushColor}, dstep{
			open: func(nd *dnode) { nd.openPushUp(b2i64(nd.color == int64(coloring.Red))) },
			handle: func(nd *dnode, in sim.Input) bool {
				return nd.pushToParent(in, pkRed, func(a, b int64) int64 { return a | b })
			},
			fcore: func(nd *dnode) {
				redNbr := (nd.parOK && nd.par == int64(coloring.Red)) || (nd.kidOK && nd.kid == 1)
				if nd.color == promote && !redNbr {
					nd.color = int64(coloring.Red)
				}
			},
		})
	}

	// Step 6: red non-leaf vertices cut their out-edge and root new
	// fragments; chase the new core name down surviving F-edges (subtree
	// depth ≤ 4, so five pushes suffice).
	for hop := 0; hop < 5; hop++ {
		s = append(s, dstep{
			open: func(nd *dnode) {
				if hop == 0 && nd.isCore() && nd.inF {
					redInternal := nd.color == int64(coloring.Red) && nd.hasKids
					if nd.isFRoot || redInternal {
						nd.newCore = nd.frag
					}
					if redInternal {
						nd.dropOut = true // the out-edge (if any) is cut for merging
					}
				}
				nd.openPushDown(int64(nd.newCore))
			},
			handle: func(nd *dnode, in sim.Input) bool { return nd.pushToChildren(in, pkChase) },
			fcore: func(nd *dnode) {
				if nd.newCore == -1 && nd.parOK && nd.par != -1 {
					nd.newCore = graph.NodeID(nd.par)
				}
			},
		})
	}

	// Step 7: broadcast the new fragment identity, then merge physically.
	return append(s,
		dstep{open: (*dnode).openNewFrag, handle: (*dnode).newFragStep},
		dstep{open: func(nd *dnode) { nd.st.keepOut = nd.isCore() && nd.hasOut && !nd.dropOut }, handle: (*dnode).rerootStep})
}

// Step 1's second half: the core broadcasts whether the fragment is active
// this phase and whether it spans the whole network.
func (nd *dnode) openActive() {
	level := bits.Len(uint(nd.size)) - 1
	nd.st.start = dActive{Active: level == nd.phaseIdx, Done: nd.size == nd.c.N()}
}

func (nd *dnode) activeStep(in sim.Input) bool {
	return nd.bcastDown(in, func(m sim.Message) bool {
		a, ok := m.Payload.(dActive)
		if ok {
			nd.active, nd.spanning = a.Active, a.Done
		}
		return ok
	})
}

// Step 2c: convergecast the chosen node's mutuality report (mutual iff a
// hook arrived on its own out-edge), encoded as other-core-id + 1.
func (nd *dnode) openMutual() {
	if other, ok := nd.hookFrom[nd.outEdge]; ok && nd.chosen {
		nd.st.val = int64(other) + 1
	}
}

func (nd *dnode) mutualStep(in sim.Input) bool {
	return convUp(nd, in,
		func(a, b int64) int64 {
			if a != 0 {
				return a
			}
			return b
		},
		func(v int64) dInfo { return dInfo{Mutual: v != 0, Other: graph.NodeID(v - 1)} },
		func(i dInfo) int64 {
			if i.Mutual {
				return int64(i.Other) + 1
			}
			return 0
		},
		func(total int64) { nd.mutual, nd.mutualOth = total != 0, graph.NodeID(total-1) })
}

// Step 2d: broadcast the drop decision (the higher core of a mutually
// selected edge roots the F-tree and drops its out-edge); a dropping
// fragment's chosen node unhooks across, absorbed in this same step.
func (nd *dnode) openDrop() {
	if nd.isCore() {
		nd.dropOut = nd.hasOut && nd.mutual && nd.frag > nd.mutualOth
	}
	nd.st.start = dDrop{Drop: nd.dropOut}
}

func (nd *dnode) dropStep(in sim.Input) bool {
	return nd.bcastDown(in, func(m sim.Message) bool {
		switch d := m.Payload.(type) {
		case dDrop:
			nd.dropOut = d.Drop
			if d.Drop && nd.chosen {
				nd.c.Send(nd.c.LinkOf(nd.outEdge), dUnhook{})
			}
			return true
		case dUnhook:
			delete(nd.hooks, m.EdgeID)
			delete(nd.hookFrom, m.EdgeID)
		}
		return false
	})
}

// Step 2e: convergecast whether any hooks survive (the fragment has
// F-children).
func (nd *dnode) openHasKids() { nd.st.val = b2i64(len(nd.hooks) > 0) }

func (nd *dnode) hasKidsStep(in sim.Input) bool {
	return convUp(nd, in,
		func(a, b int64) int64 { return a | b },
		func(v int64) dHasKids { return dHasKids{Has: v == 1} },
		func(h dHasKids) int64 { return b2i64(h.Has) },
		func(total int64) { nd.hasKids = total == 1 })
}

// Step 7a: broadcast the new fragment identity.
func (nd *dnode) openNewFrag() {
	if nd.inF {
		nd.st.start = dNewFrag{Core: nd.newCore}
	}
}

func (nd *dnode) newFragStep(in sim.Input) bool {
	return nd.bcastDown(in, func(m sim.Message) bool {
		nf, ok := m.Payload.(dNewFrag)
		if ok {
			nd.frag = nf.Core
		}
		return ok
	})
}

// rerootStep is Step 7b: each fragment that kept its out-edge re-roots at
// the chosen node (flipping parent pointers along the core→chosen path) and
// attaches across the MWOE; hooked nodes add the cross edge as a child.
func (nd *dnode) rerootStep(in sim.Input) bool {
	c := nd.c
	flip := func() {
		if nd.downEdge == -1 {
			// I am the chosen node: attach across.
			if nd.parentEdge != -1 {
				nd.children[nd.parentEdge] = true
			}
			nd.parentEdge = nd.outEdge
			c.Send(c.LinkOf(nd.outEdge), dAttach{})
		} else {
			c.Send(c.LinkOf(nd.downEdge), dReroot{})
			if nd.parentEdge != -1 {
				nd.children[nd.parentEdge] = true
			}
			nd.parentEdge = nd.downEdge
			delete(nd.children, nd.downEdge)
		}
	}
	for _, m := range in.Msgs {
		switch m.Payload.(type) {
		case dReroot:
			flip()
		case dAttach:
			nd.children[m.EdgeID] = true
		}
	}
	if nd.st.keepOut && !nd.st.started {
		nd.st.started = true
		flip()
	}
	return false
}

func smallestColorExcept(c int64) int64 {
	for x := int64(0); ; x++ {
		if x != c {
			return x
		}
	}
}

func thirdColor(a, b int64) int64 {
	for x := int64(0); x < 3; x++ {
		if x != a && x != b {
			return x
		}
	}
	return -1
}

// encodeRootColor packs (isRoot, color) into one int64 for the Step 4 push.
func encodeRootColor(isRoot bool, color int64) int64 {
	v := color << 1
	if isRoot {
		v |= 1
	}
	return v
}

func decodeRootColor(v int64) (isRoot bool, color int64) {
	return v&1 == 1, v >> 1
}

func b2i64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// detMachine runs a fixed budget of phases of the deterministic partition,
// stopping early once one fragment spans the network.
type detMachine struct {
	dnode
	script []dstep
	phases int
	phase  int
	info   *DeterministicInfo // written by node 0 when it finishes
	result any
}

// deterministicProgram runs `phases` phases of the deterministic partition
// on n nodes; parallelMWOE selects the A4 ablation's edge testing.
func deterministicProgram(n, phases int, parallelMWOE bool, info *DeterministicInfo) sim.StepProgram {
	script := phaseScript(cvStepsFor(n), parallelMWOE)
	return func(c sim.Node) sim.Machine {
		return &detMachine{dnode: newDNode(c), script: script, phases: phases, info: info}
	}
}

func (m *detMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		if m.phases < 1 {
			return m.finish()
		}
		m.beginPhase(m.script, 0)
	}
	for m.advance(in) {
		if m.spanning || m.phase+1 == m.phases {
			return m.finish()
		}
		m.phase++
		m.beginPhase(m.script, m.phase)
	}
	return false
}

// finish records the node's final view of the partition.
func (m *detMachine) finish() bool {
	parent := graph.NodeID(-1)
	if m.parentEdge != -1 {
		parent = m.c.Topo().Edge(m.parentEdge).Other(m.c.ID())
	}
	m.result = NodeOutcome{Parent: parent, ParentEdge: m.parentEdge, Root: m.frag}
	if m.c.ID() == 0 {
		*m.info = DeterministicInfo{Phases: min(m.phase+1, m.phases), CVSteps: cvStepsFor(m.c.N()), Finished: true}
	}
	return true
}

func (m *detMachine) Result() any { return m.result }

// DeterministicPhaseCount returns the paper's phase budget ⌈log2(n)/2⌉,
// which yields fragments of size ≥ √n and radius O(√n).
func DeterministicPhaseCount(n int) int {
	p := (bits.Len(uint(n-1)) + 1) / 2
	if p < 1 {
		p = 1
	}
	return p
}

// DeterministicPhases runs the §3 algorithm for the given number of phases
// and returns the resulting spanning forest (every tree a subtree of the
// MST), run metrics, and info.
func DeterministicPhases(g graph.Topology, seed int64, phases int) (*forest.Forest, *sim.Metrics, *DeterministicInfo, error) {
	var info DeterministicInfo
	f, met, err := runAndBuild(g, deterministicProgram(g.N(), phases, false, &info), seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return f, met, &info, nil
}

// Deterministic runs the §3 partition with the paper's standard balance
// point: ⌈log2(n)/2⌉ phases, giving O(√n) trees of radius O(√n).
func Deterministic(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *DeterministicInfo, error) {
	return DeterministicPhases(g, seed, DeterministicPhaseCount(g.N()))
}

// Boruvka runs the same fragment machinery to completion (⌈log2 n⌉ phases
// plus early exit), producing the full MST as a single tree. This is the
// pure point-to-point baseline for the §6 experiment: it uses the channel
// only for the §7.1 barrier, never for data.
func Boruvka(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *DeterministicInfo, error) {
	phases := bits.Len(uint(g.N()-1)) + 1
	return DeterministicPhases(g, seed, phases)
}
