package partition

import (
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Ablation A4 (DESIGN.md): the alternative MWOE search that tests all
// untested edges in parallel instead of sequentially in weight order. It
// finishes in O(1) rounds plus the convergecast instead of O(1 + rejects),
// but re-tests accepted edges every phase, so its message complexity grows
// to O(m·log n) instead of the paper's O(m + n·log n·log*n). The experiment
// table quantifies the trade.
func (nd *dnode) openMWOEParallel() {
	nd.cand = dMin{Valid: false, W: noWeight}
	nd.best = dMin{Valid: false, W: noWeight}
	nd.downEdge = -1
	if nd.active {
		for _, h := range nd.c.Adj() {
			if nd.rejected[int(h.EdgeID)] || int(h.EdgeID) == nd.parentEdge || nd.children[int(h.EdgeID)] {
				continue
			}
			nd.c.Send(nd.c.LinkOf(int(h.EdgeID)), dTest{Frag: nd.frag})
			nd.st.pending++
		}
	}
	nd.st.testDone = !nd.active || nd.st.pending == 0
}

func (nd *dnode) mwoeStepParallel(in sim.Input) bool {
	c, st := nd.c, &nd.st
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dTest:
			c.Send(c.LinkOf(m.EdgeID), dReply{Accept: p.Frag != nd.frag, Frag: nd.frag})
		case dReply:
			st.pending--
			if p.Accept {
				e := c.Topo().Edge(m.EdgeID)
				if !nd.cand.Valid || e.Weight < nd.cand.W {
					nd.cand = dMin{Valid: true, W: e.Weight, Edge: m.EdgeID, Target: p.Frag}
				}
			} else {
				nd.rejected[m.EdgeID] = true
			}
			if st.pending == 0 {
				st.testDone = true
			}
		case dMin:
			nd.report(m.EdgeID, p)
		}
	}
	nd.reportMWOE()
	return nd.active && !st.replied
}

// DeterministicParallelMWOE runs the §3 partition with the A4 parallel
// edge-testing variant (same output guarantees, different cost profile).
func DeterministicParallelMWOE(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *DeterministicInfo, error) {
	var info DeterministicInfo
	f, met, err := runAndBuild(g, deterministicProgram(g.N(), DeterministicPhaseCount(g.N()), true, &info), seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return f, met, &info, nil
}
