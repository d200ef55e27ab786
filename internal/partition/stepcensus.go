package partition

// stepcensus.go is the native step-machine port of the deterministic
// partition's Step 1 (the fragment census of deterministic.go's countStep):
// every core learns its fragment's size by a barrier-synchronized
// broadcast-and-respond over the fragment trees. The machine form mirrors
// the goroutine form message for message — same dCount/dSize payloads, same
// busy-tone barrier — so both engines produce identical transcripts; the
// equivalence test in stepcensus_test.go asserts it.

import (
	"fmt"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/sim"
)

// fragCensusMachine is one node's state in the native fragment census.
type fragCensusMachine struct {
	c sim.Node
	b *sim.StepBarrier

	parent     graph.NodeID // -1 at cores
	childLinks []int

	started bool
	replied bool
	reports int
	sum     int
	size    int // fragment size, set at cores
}

func (m *fragCensusMachine) Step(in sim.Input) bool {
	return m.b.Step(in, m.handle)
}

// handle is countStep's per-round handler: forward the count request down,
// aggregate sizes up, record the total at the core.
func (m *fragCensusMachine) handle(in sim.Input) bool {
	for _, msg := range in.Msgs {
		switch p := msg.Payload.(type) {
		case dCount:
			m.started = true
			for _, l := range m.childLinks {
				m.c.Send(l, dCount{})
			}
		case dSize:
			m.reports++
			m.sum += p.N
		}
	}
	if m.parent == -1 && !m.started {
		m.started = true
		for _, l := range m.childLinks {
			m.c.Send(l, dCount{})
		}
	}
	if m.started && !m.replied && m.reports == len(m.childLinks) {
		m.replied = true
		if m.parent == -1 {
			m.size = m.sum
		} else {
			l, ok := m.c.Link(m.parent)
			if !ok {
				m.c.Failf("parent %d not adjacent", m.parent)
			}
			m.c.Send(l, dSize{N: m.sum})
		}
	}
	return false
}

func (m *fragCensusMachine) Result() any { return m.size }

// FragmentSizes runs the native fragment census over an existing forest and
// returns each node's fragment size at its core (0 elsewhere) plus the run
// metrics. It is the step-API form of the census the deterministic
// partition runs at the start of every phase.
func FragmentSizes(f *forest.Forest, seed int64, opts ...sim.Option) ([]int, *sim.Metrics, error) {
	children := f.Children()
	opts = append([]sim.Option{sim.WithSeed(seed)}, opts...)
	res, err := sim.RunStep(f.G, func(c sim.Node) sim.Machine {
		return &fragCensusMachine{
			c:          c,
			b:          sim.NewStepBarrier(c),
			parent:     f.Parent[c.ID()],
			childLinks: childLinksOf(c, f, children[c.ID()]),
			sum:        1, // self
		}
	}, opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("partition: fragment census: %w", err)
	}
	sizes := make([]int, f.G.N())
	for v, r := range res.Results {
		sizes[v] = r.(int)
	}
	return sizes, &res.Metrics, nil
}

// childLinksOf resolves a node's tree children to local link indexes.
func childLinksOf(c sim.Node, f *forest.Forest, kids []graph.NodeID) []int {
	if len(kids) == 0 {
		return nil
	}
	links := make([]int, 0, len(kids))
	for _, k := range kids {
		links = append(links, c.LinkOf(f.ParentEdge[k]))
	}
	return links
}
