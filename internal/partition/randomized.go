package partition

import (
	"errors"
	"math"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// The randomized partitioning algorithm (§4). Iterations are synchronized by
// their precomputed fixed length (the paper: "the processors can compute the
// length of each iteration"), so each node's machine keeps a round counter
// into the current iteration. Iteration i:
//
//  1. every free node flips a coin with probability min(1, E_i/√n) — the
//     tower E_0 = 1, E_{i+1} = e^{E_i} — and heads become local centers;
//  2. centers grow BFS trees to depth at most 4√n over free nodes, with
//     nodes adopting the (distance, least-root-id) minimum and switching
//     trees only when their label decreases;
//  3. trees with no outgoing link to an unlabeled free node become unfree
//     entirely; in all other trees the nodes with label ≤ 2√n become unfree;
//  4. newly unfree nodes announce themselves so incident links die.
//
// Links found internal to a tree without being tree edges are removed for
// the algorithm's purposes, the paper's message-saving rule. The final
// iteration uses probability 1, so every node finishes. The result is a
// spanning forest of trees with radius ≤ 4√n and E[#trees] = O(√n).

const unlabeled = math.MaxInt32

// ErrLasVegasRestarts is returned if the Las Vegas wrapper exceeds its
// restart budget (probability < 2^-budget per the paper's analysis).
var ErrLasVegasRestarts = errors.New("partition: las vegas restart budget exhausted")

// RandomizedInfo reports auxiliary facts about a randomized-partition run.
type RandomizedInfo struct {
	Iterations int
	Restarts   int            // Las Vegas only
	RootOrder  []graph.NodeID // Las Vegas only: the verified channel schedule of cores
}

// message payloads of the randomized partition.
type (
	rpUpdate struct { // BFS wave: sender's root and label
		Root  graph.NodeID
		Label int
	}
	rpStatus struct { // post-BFS neighbor exchange
		InTree     bool
		Root       graph.NodeID
		ParentLink bool // this link is the sender's tree parent link
	}
	rpConv   struct{ HasOutgoing bool } // convergecast: subtree has link to unlabeled free node
	rpDecide struct{ KeepAll bool }     // root's verdict broadcast down the tree
	rpUnfree struct{}                   // sender became unfree; link dies
)

// iterationProbs returns the per-iteration head probabilities: the tower
// E_i/√n capped at 1. The last entry is exactly 1, guaranteeing termination;
// there are at most ln* n + O(1) entries.
func iterationProbs(sqrtN int) []float64 {
	var probs []float64
	t := 1.0
	for {
		p := t / float64(sqrtN)
		if p >= 1 {
			probs = append(probs, 1)
			return probs
		}
		probs = append(probs, p)
		t = math.Exp(t)
	}
}

// rnode is one node's state in the randomized partition.
type rnode struct {
	c        sim.Node
	sqrtN    int
	dmax     int // BFS depth bound 4√n
	cut      int // unfree label threshold 2√n
	probs    []float64
	lasVegas bool

	free       bool
	label      int
	root       graph.NodeID
	parentEdge int // graph edge id to parent; -1 for centers/unlabeled

	inTree          bool // labeled in the current iteration's BFS
	pendingAnnounce bool
	live            []bool // per local link index
	childLinks      []int  // local link indices of current-iteration children
	outcome         NodeOutcome
	finished        bool

	// Iteration it of the current attempt, at its round j; then the
	// convergecast and verdict state of phases D and E.
	it, j    int
	or       bool
	reports  int
	sentUp   bool
	decided  bool
	keepAll  bool
	sentDown bool

	mb       *resolve.MetcalfeBoggsStep // the running Las Vegas verification
	restarts int
	info     *RandomizedInfo
	result   any
}

// reset restores the initial all-free state (used on Las Vegas restarts).
func (nd *rnode) reset() {
	nd.free = true
	nd.label = unlabeled
	nd.root = -1
	nd.parentEdge = -1
	nd.inTree = false
	nd.pendingAnnounce = false
	nd.finished = false
	for l := range nd.live {
		nd.live[l] = true
	}
	nd.childLinks = nil
	nd.outcome = NodeOutcome{Parent: -1, ParentEdge: -1, Root: -1}
	nd.it, nd.j = 0, 0
}

// sendLive sends p on every live link except the one with local index skip
// (pass -1 to send on all live links).
func (nd *rnode) sendLive(p sim.Payload, skip int) {
	for l, ok := range nd.live {
		if ok && l != skip {
			nd.c.Send(l, p)
		}
	}
}

func (nd *rnode) parentLinkIdx() int {
	if nd.parentEdge == -1 {
		return -1
	}
	return nd.c.LinkOf(nd.parentEdge)
}

// processDead marks links dead for every rpUnfree in the inbox (these arrive
// in the round after an iteration ends).
func (nd *rnode) processDead(msgs []sim.Message) {
	for _, m := range msgs {
		if _, ok := m.Payload.(rpUnfree); ok {
			nd.live[nd.c.LinkOf(m.EdgeID)] = false
		}
	}
}

func (nd *rnode) Step(in sim.Input) bool {
	switch {
	case in.Round == 0:
	case nd.mb != nil:
		if !nd.mb.Poll(in) {
			return false
		}
		if nd.verified() {
			return true
		}
	default:
		// An iteration lasts 3·dmax+8 rounds (see act); in the last one
		// the unfree announcements arrive and the next iteration starts.
		nd.j++
		if nd.j < 3*nd.dmax+8 {
			nd.receive(in.Msgs)
			break
		}
		nd.processDead(in.Msgs)
		nd.it, nd.j = nd.it+1, 0
		if nd.it == len(nd.probs) {
			return nd.attemptDone()
		}
	}
	nd.act()
	return false
}

// receive digests the input of round j of the current iteration (the
// messages sent in round j-1).
func (nd *rnode) receive(msgs []sim.Message) {
	d := nd.dmax
	switch j := nd.j; {
	case j == 1:
		// Phase A sends nothing.
	case j <= d+2:
		nd.adopt(msgs)
	case j == d+3:
		nd.or, _ = nd.processStatus(msgs)
		nd.reports = 0
		nd.sentUp = false
	case j <= 2*d+5:
		for _, m := range msgs {
			if cm, ok := m.Payload.(rpConv); ok {
				nd.or = nd.or || cm.HasOutgoing
				nd.reports++
			}
		}
	default:
		for _, m := range msgs {
			if dm, ok := m.Payload.(rpDecide); ok {
				nd.decided = true
				nd.keepAll = dm.KeepAll
			}
		}
	}
}

// act performs round j of the current iteration: its sends and state
// changes.
func (nd *rnode) act() {
	c := nd.c
	d := nd.dmax
	switch j := nd.j; {
	case j == 0:
		// Phase A (1 round): coin flip.
		nd.inTree = false
		nd.childLinks = nd.childLinks[:0]
		if nd.free && c.Rand().Float64() < nd.probs[nd.it] {
			nd.label = 0
			nd.root = c.ID()
			nd.parentEdge = -1
			nd.inTree = true
			nd.pendingAnnounce = true
		}
	case j <= d+1:
		// Phase B (dmax+1 rounds): synchronous multi-source BFS over free
		// nodes.
		if nd.pendingAnnounce && nd.label < d {
			nd.sendLive(rpUpdate{Root: nd.root, Label: nd.label}, nd.parentLinkIdx())
		}
		nd.pendingAnnounce = false
	case j == d+2:
		// Phase C (1 round): status exchange on live links.
		if nd.free {
			pl := -1
			if nd.inTree {
				pl = nd.parentLinkIdx()
			}
			for l, ok := range nd.live {
				if !ok {
					continue
				}
				c.Send(l, rpStatus{InTree: nd.inTree, Root: nd.root, ParentLink: nd.inTree && l == pl})
			}
		}
	case j <= 2*d+4:
		// Phase D (dmax+2 rounds): convergecast OR(hasOutgoing) to the
		// root.
		if nd.inTree && !nd.sentUp && nd.reports == len(nd.childLinks) {
			if nd.label > 0 {
				c.Send(nd.parentLinkIdx(), rpConv{HasOutgoing: nd.or})
			}
			nd.sentUp = true
		}
	case j <= 3*d+6:
		// Phase E (dmax+2 rounds): root broadcasts the verdict down the
		// tree.
		if j == 2*d+5 {
			nd.keepAll = false
			nd.decided = nd.inTree && nd.label == 0
			if nd.decided {
				nd.keepAll = !nd.or
			}
			nd.sentDown = false
		}
		if nd.decided && !nd.sentDown {
			for _, l := range nd.childLinks {
				c.Send(l, rpDecide{KeepAll: nd.keepAll})
			}
			nd.sentDown = true
		}
	default:
		// Phase F (1 round): newly unfree nodes record their outcome and
		// announce so incident links die.
		if nd.inTree && nd.decided && (nd.keepAll || nd.label <= nd.cut) {
			nd.free = false
			nd.finished = true
			nd.outcome = NodeOutcome{Parent: -1, ParentEdge: -1, Root: nd.root}
			if nd.label > 0 {
				e := c.Topo().Edge(nd.parentEdge)
				nd.outcome.Parent = e.Other(c.ID())
				nd.outcome.ParentEdge = nd.parentEdge
			}
			nd.sendLive(rpUnfree{}, -1)
		}
	}
}

// adopt applies the BFS adoption rule to one round's updates: take the
// minimum (label+1, root) candidate, switch only if it strictly reduces the
// label (ties between simultaneous candidates break toward the least root).
func (nd *rnode) adopt(msgs []sim.Message) {
	if !nd.free {
		return
	}
	bestLabel, bestRoot, bestEdge := unlabeled, graph.NodeID(-1), -1
	for _, m := range msgs {
		u, ok := m.Payload.(rpUpdate)
		if !ok {
			continue
		}
		cand := u.Label + 1
		if cand < bestLabel || (cand == bestLabel && u.Root < bestRoot) {
			bestLabel, bestRoot, bestEdge = cand, u.Root, m.EdgeID
		}
	}
	if bestEdge != -1 && bestLabel < nd.label {
		nd.label = bestLabel
		nd.root = bestRoot
		nd.parentEdge = bestEdge
		nd.inTree = true
		nd.pendingAnnounce = true
	}
}

// processStatus digests the post-BFS exchange: learn children, detect
// outgoing links to unlabeled free nodes, and remove links internal to the
// tree that are not tree edges (the paper's message-saving rule).
func (nd *rnode) processStatus(msgs []sim.Message) (hasOutgoing bool, removed int) {
	pl := -1
	if nd.inTree {
		pl = nd.parentLinkIdx()
	}
	childSet := make(map[int]bool)
	for _, m := range msgs {
		st, ok := m.Payload.(rpStatus)
		if !ok {
			continue
		}
		l := nd.c.LinkOf(m.EdgeID)
		if nd.inTree && st.ParentLink {
			nd.childLinks = append(nd.childLinks, l)
			childSet[l] = true
		}
	}
	for _, m := range msgs {
		st, ok := m.Payload.(rpStatus)
		if !ok {
			continue
		}
		l := nd.c.LinkOf(m.EdgeID)
		switch {
		case !st.InTree:
			if nd.inTree {
				hasOutgoing = true
			}
		case nd.inTree && st.Root == nd.root && l != pl && !childSet[l]:
			nd.live[l] = false
			removed++
		}
	}
	return hasOutgoing, removed
}

// attemptDone ends an attempt's last iteration. The Monte Carlo partition
// halts here; the Las Vegas one appends the §4 verification: schedule the
// cores on the channel for 8√n slots via Metcalfe–Boggs, starting in this
// round, and restart unless all cores were scheduled and there are at most
// 2√n of them.
func (nd *rnode) attemptDone() bool {
	if !nd.finished {
		nd.c.Failf("node %d still free after final iteration", nd.c.ID())
	}
	if !nd.lasVegas {
		return nd.halt(nil)
	}
	isRoot := nd.outcome.ParentEdge == -1
	nd.mb = resolve.NewMetcalfeBoggsStep(nd.c, nd.sqrtN, isRoot, int(nd.c.ID()), nil, 4*nd.sqrtN)
	nd.mb.Begin() // never done at once: the pair budget is positive
	return false
}

// verified judges a finished verification. On success it halts the node
// with the verified core order; otherwise it restarts the partition, whose
// first iteration the caller starts in this same round.
func (nd *rnode) verified() bool {
	mb := nd.mb
	nd.mb = nil
	if mb.Done && len(mb.Sched) <= 2*nd.sqrtN {
		order := make([]graph.NodeID, len(mb.Sched))
		for i, s := range mb.Sched {
			order[i] = graph.NodeID(s.ID)
		}
		return nd.halt(order)
	}
	nd.restarts++
	if nd.restarts >= lasVegasAttempts {
		nd.c.Failf("%w after %d attempts", ErrLasVegasRestarts, lasVegasAttempts)
	}
	nd.reset()
	return false
}

// halt records the node's outcome, and at node 0 the run's info.
func (nd *rnode) halt(rootOrder []graph.NodeID) bool {
	nd.result = nd.outcome
	if nd.c.ID() == 0 {
		*nd.info = RandomizedInfo{Iterations: len(nd.probs), Restarts: nd.restarts, RootOrder: rootOrder}
	}
	return true
}

func (nd *rnode) Result() any { return nd.result }

// lasVegasAttempts bounds the Las Vegas wrapper's attempts.
const lasVegasAttempts = 50

// randomizedProgram runs the Monte Carlo partition, or with lasVegas the
// verified Las Vegas one.
func randomizedProgram(lasVegas bool, info *RandomizedInfo) sim.StepProgram {
	return func(c sim.Node) sim.Machine {
		nd := &rnode{
			c:        c,
			sqrtN:    SqrtN(c.N()),
			live:     make([]bool, c.Degree()),
			lasVegas: lasVegas,
			info:     info,
		}
		nd.dmax = 4 * nd.sqrtN
		nd.cut = 2 * nd.sqrtN
		nd.probs = iterationProbs(nd.sqrtN)
		nd.reset()
		return nd
	}
}

// Randomized runs the Monte Carlo randomized partition (§4) and returns the
// spanning forest, the run's metrics, and auxiliary info.
func Randomized(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *RandomizedInfo, error) {
	var info RandomizedInfo
	f, met, err := runAndBuild(g, randomizedProgram(false, &info), seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return f, met, &info, nil
}

// RandomizedLasVegas runs the Las Vegas variant: the partition is verified
// by scheduling the cores on the channel and restarted until at most 2√n
// trees were produced, so the returned forest always satisfies the balance
// bound. The verified core schedule is returned in the info.
func RandomizedLasVegas(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *RandomizedInfo, error) {
	var info RandomizedInfo
	f, met, err := runAndBuild(g, randomizedProgram(true, &info), seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return f, met, &info, nil
}
