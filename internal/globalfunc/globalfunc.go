// Package globalfunc implements §5: computing global sensitive functions in
// a multimedia network. A global sensitive function is F(x₁,…,xₙ) = x₁●…●xₙ
// for a commutative semigroup (X,●) whose value cannot be determined from
// any n-1 of its inputs (sum, min, max, xor over the integers are the
// canonical examples).
//
// The multimedia algorithm is two-stage: a local stage computes each
// partition tree's partial result in parallel by convergecast on the
// point-to-point network, then a global stage schedules the tree roots on
// the multiaccess channel — deterministically with Capetanakis tree
// splitting (O(√n·log n) time) or randomized with Metcalfe–Boggs contention
// (O(√n) expected time). The two baselines realize the paper's lower-bound
// models: a pure point-to-point network needs Ω(d) time, a pure broadcast
// network Ω(n).
//
// Every computation is a sim.Machine per node on sim.DefaultEngine. The
// multimedia compute stage runs the local convergecast under the §7.1
// barrier and, on its pulse round, the global stage's resolve component.
package globalfunc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// Op is a commutative semigroup operation over int64.
type Op struct {
	Name    string
	Combine func(a, b int64) int64
}

// The canonical global sensitive functions of §5.
var (
	Sum = Op{Name: "sum", Combine: func(a, b int64) int64 { return a + b }}
	Min = Op{Name: "min", Combine: func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}}
	Max = Op{Name: "max", Combine: func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}}
	Xor = Op{Name: "xor", Combine: func(a, b int64) int64 { return a ^ b }}
)

// Inputs assigns each node its input element.
type Inputs func(v graph.NodeID) int64

// Reference computes the function sequentially (ground truth for tests).
func Reference(g graph.Topology, op Op, in Inputs) int64 {
	acc := in(0)
	for v := 1; v < g.N(); v++ {
		acc = op.Combine(acc, in(graph.NodeID(v)))
	}
	return acc
}

// Variant selects the partitioning algorithm feeding the multimedia
// computation.
type Variant int

// Partition variants.
const (
	// VariantDeterministic uses the §3 partition at the standard √n balance.
	VariantDeterministic Variant = iota + 1
	// VariantBalanced uses the §5.1 improved balance: the deterministic
	// partition is stopped at fragments of size √(n·log n/log* n), making
	// the local and global stages both O(√(n·log n·log* n)).
	VariantBalanced
	// VariantRandomized uses the §4 Las Vegas partition, whose verified
	// core schedule lets the global stage run with an exact contender count.
	VariantRandomized
)

// Stage selects the channel-scheduling protocol of the global stage.
type Stage int

// Global-stage protocols.
const (
	StageCapetanakis   Stage = iota + 1 // deterministic tree splitting
	StageMetcalfeBoggs                  // randomized contention
)

// Result reports a distributed computation's outcome and costs.
type Result struct {
	Value     int64
	Trees     int         // partition trees = channel contenders
	Partition sim.Metrics // stage-1 costs (zero for the baselines)
	Compute   sim.Metrics // local+global stage costs
	Total     sim.Metrics
}

// ErrDisagreement is returned when nodes finish with unequal values — a
// protocol bug by construction, surfaced defensively.
var ErrDisagreement = errors.New("globalfunc: nodes disagree on the result")

// collectValue checks that every node finished with the same int64 result.
func collectValue(results []any) (int64, error) {
	val, ok := results[0].(int64)
	if !ok {
		return 0, fmt.Errorf("globalfunc: node 0 recorded %T, want int64", results[0])
	}
	for v, r := range results {
		if r != val {
			return 0, fmt.Errorf("%w: node %d has %v, node 0 has %v", ErrDisagreement, v, r, val)
		}
	}
	return val, nil
}

// Multimedia computes the function on the multimedia network: partition,
// local convergecast, global channel scheduling.
func Multimedia(g graph.Topology, seed int64, op Op, in Inputs, variant Variant, stage Stage) (*Result, error) {
	n := g.N()
	var (
		f    *forest.Forest
		pm   *sim.Metrics
		info *partition.RandomizedInfo
		err  error
	)
	switch variant {
	case VariantDeterministic:
		f, pm, _, err = partition.Deterministic(g, seed)
	case VariantBalanced:
		f, pm, _, err = partition.DeterministicPhases(g, seed, BalancedPhaseCount(n))
	case VariantRandomized:
		f, pm, info, err = partition.RandomizedLasVegas(g, seed)
	default:
		return nil, fmt.Errorf("globalfunc: unknown variant %d", variant)
	}
	if err != nil {
		return nil, fmt.Errorf("globalfunc: partition: %w", err)
	}

	// The Metcalfe–Boggs stage starts from the verified root count when
	// the partition provides one.
	estimate := partition.SqrtN(n)
	if info != nil && len(info.RootOrder) > 0 {
		estimate = len(info.RootOrder)
	}
	res, err := sim.RunStep(g, stageProgram(f, op, in, stage, estimate),
		sim.WithSeed(seed+1), sim.WithEngine(sim.DefaultEngine))
	if err != nil {
		return nil, fmt.Errorf("globalfunc: compute: %w", err)
	}
	val, err := collectValue(res.Results)
	if err != nil {
		return nil, err
	}
	out := &Result{Value: val, Trees: f.Trees(), Partition: *pm, Compute: res.Metrics}
	out.Total = *pm
	out.Total.Add(&res.Metrics)
	return out, nil
}

// stageMachine runs the local stage (tree convergecast under the §7.1
// barrier) followed by the global stage (channel scheduling of the roots).
type stageMachine struct {
	c       sim.Node
	b       *sim.StepBarrier
	op      Op
	parent  graph.NodeID
	kids    int
	partial int64
	reports int
	sentUp  bool

	stage    Stage
	estimate int
	global   resolve.Component // nil during the local stage
	sched    *[]resolve.ScheduledItem
	result   any
}

func stageProgram(f *forest.Forest, op Op, in Inputs, stage Stage, estimate int) sim.StepProgram {
	children := f.Children()
	return func(c sim.Node) sim.Machine {
		id := c.ID()
		return &stageMachine{
			c: c, b: sim.NewStepBarrier(c), op: op, parent: f.Parent[id],
			kids: len(children[id]), partial: in(id), stage: stage, estimate: estimate,
		}
	}
}

func (m *stageMachine) Step(in sim.Input) bool {
	if m.global == nil {
		if !m.b.Step(in, m.convergecast) {
			return false
		}
		// Global stage: the roots broadcast their partials on the
		// channel, starting on the pulse round.
		m.global, m.sched = scheduler(m.c, m.stage, m.estimate, m.parent == -1, m.partial)
		if !m.global.Begin() {
			return false
		}
	} else if !m.global.Poll(in) {
		return false
	}
	m.result = combineAll(m.op, *m.sched)
	return true
}

// convergecast is the local stage's barrier handler: fold the children's
// partials and pass the result up once every child reported. The barrier's
// idle pulse tells every node the stage has globally ended.
func (m *stageMachine) convergecast(in sim.Input) bool {
	for _, msg := range in.Msgs {
		m.partial = m.op.Combine(m.partial, msg.Payload.(int64))
		m.reports++
	}
	if !m.sentUp && m.reports == m.kids {
		m.sentUp = true
		if m.parent != -1 {
			m.c.SendTo(m.parent, m.partial)
		}
	}
	return false
}

func (m *stageMachine) Result() any { return m.result }

// scheduler returns the global-stage protocol of stage with this node
// contending (if contending) to broadcast payload, and where the protocol
// leaves its schedule.
func scheduler(c sim.Node, stage Stage, estimate int, contending bool, payload int64) (resolve.Component, *[]resolve.ScheduledItem) {
	switch stage {
	case StageCapetanakis:
		s := resolve.NewCapetanakisStep(c, c.N(), contending, int(c.ID()), payload, 0)
		return s, &s.Sched
	case StageMetcalfeBoggs:
		s := resolve.NewMetcalfeBoggsStep(c, estimate, contending, int(c.ID()), payload, 0)
		return s, &s.Sched
	}
	c.Failf("unknown stage %d", stage)
	return nil, nil
}

// combineAll folds every scheduled payload with op, in schedule order.
func combineAll(op Op, sched []resolve.ScheduledItem) int64 {
	acc := sched[0].Payload.(int64)
	for _, s := range sched[1:] {
		acc = op.Combine(acc, s.Payload.(int64))
	}
	return acc
}

// BalancedPhaseCount is the §5.1 balance: stop the deterministic partition
// once fragments reach size √(n·log₂n / log*n), so the global stage's
// O(#roots·log n) scheduling matches the local stage's O(radius).
func BalancedPhaseCount(n int) int {
	logStar := 1
	v := float64(n)
	for v > 2 {
		logStar++
		v = math.Log2(v)
		if logStar > 6 {
			break
		}
	}
	size := math.Sqrt(float64(n) * math.Log2(float64(n)) / float64(logStar))
	p := int(math.Ceil(math.Log2(size)))
	if p < 1 {
		p = 1
	}
	return p
}
