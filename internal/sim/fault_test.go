package sim

// fault_test.go verifies the fault-injection semantics of both engines: the
// crash-stop boundary, drop/delay/duplicate message fates, channel jamming,
// and the extension of the determinism contract to faulted runs (identical
// transcripts on the goroutine engine and the step engine at any worker
// count).

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// relayRounds runs for the given number of rounds on a two-node path:
// node 0 sends the round number to node 1 every round, and node 1's result
// is every payload it received, in arrival order.
func relayRounds(rounds int) StepProgram {
	return func(c Node) Machine {
		var got []int
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					got = append(got, m.Payload.(int))
				}
				if in.Round == rounds {
					return true
				}
				if c.ID() == 0 {
					c.SendTo(1, in.Round)
				}
				return false
			},
			result: func() any { return got },
		}
	}
}

// arrivals runs for the given number of rounds on a two-node path: node 0
// sends "m<round>" to node 1 in each of the listed rounds, and node 1's
// result is every arrival as "payload@round".
func arrivals(rounds int, sendAt ...int) StepProgram {
	return func(c Node) Machine {
		var got []string
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					got = append(got, fmt.Sprintf("%s@%d", m.Payload, in.Round))
				}
				if in.Round == rounds {
					return true
				}
				if c.ID() == 0 && slices.Contains(sendAt, in.Round) {
					c.SendTo(1, fmt.Sprintf("m%d", in.Round))
				}
				return false
			},
			result: func() any { return got },
		}
	}
}

// TestFaultCrashStop checks the crash boundary: the victim's sends from its
// last completed round are delivered, nothing later; messages addressed to
// it after the crash are dropped as to a halted node.
func TestFaultCrashStop(t *testing.T) {
	g, err := graph.Path(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash:2@5")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c Node) Machine {
		var got []int
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					if m.From == 2 {
						got = append(got, m.Payload.(int))
					}
				}
				if in.Round == 8 {
					return true
				}
				switch c.ID() {
				case 2:
					c.SendTo(1, in.Round)
				case 1:
					c.SendTo(2, in.Round)
				}
				return false
			},
			result: func() any { return got },
		}
	}
	res := mustRunEngines(t, g, prog, WithSeed(1), WithFaults(plan))
	// Node 2's last compute round is 4: values 0..4 arrive at node 1.
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.Crashed != 1 {
		t.Errorf("Crashed = %d, want 1", res.Metrics.Crashed)
	}
	// Node 1's sends of rounds 4..7 arrive at rounds 5..8, after the crash.
	if res.Metrics.DroppedHalted != 4 {
		t.Errorf("DroppedHalted = %d, want 4", res.Metrics.DroppedHalted)
	}
}

// TestFaultLinkDrop checks a finite drop window on one edge.
func TestFaultLinkDrop(t *testing.T) {
	g, err := graph.Path(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("drop:0@3-5")
	if err != nil {
		t.Fatal(err)
	}
	prog := relayRounds(8)
	res := mustRunEngines(t, g, prog, WithSeed(1), WithFaults(plan))
	// Values 2, 3, 4 would arrive at rounds 3, 4, 5 — the drop window.
	if want := []int{0, 1, 5, 6, 7}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.DroppedFault != 3 {
		t.Errorf("DroppedFault = %d, want 3", res.Metrics.DroppedFault)
	}
	if res.Metrics.Messages != 8 {
		t.Errorf("Messages = %d, want 8 (drops still count as sent)", res.Metrics.Messages)
	}
}

// TestFaultDelayAndDup checks delayed and duplicated deliveries.
func TestFaultDelayAndDup(t *testing.T) {
	g, err := graph.Path(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("delay:0@1/d3;dup:0@2")
	if err != nil {
		t.Fatal(err)
	}
	prog := arrivals(8, 0, 1)
	res := mustRunEngines(t, g, prog, WithSeed(1), WithFaults(plan))
	// m0 (normal arrival 1) is delayed 3 rounds to 4; m1 (arrival 2) is
	// duplicated: delivered at 2 and again at 3.
	if want := []string{"m1@2", "m1@3", "m0@4"}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.Delayed != 1 || res.Metrics.Duplicated != 1 {
		t.Errorf("Delayed, Duplicated = %d, %d, want 1, 1",
			res.Metrics.Delayed, res.Metrics.Duplicated)
	}
}

// TestFaultJam checks that a jammed slot presents as a collision to every
// node, hiding a lone writer.
func TestFaultJam(t *testing.T) {
	g, err := graph.Path(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("jam:3")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c Node) Machine {
		var states []SlotState
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round > 0 {
					states = append(states, in.Slot.State)
				}
				if in.Round == 5 {
					return true
				}
				if c.ID() == 0 {
					c.Broadcast("x")
				}
				return false
			},
			result: func() any { return states },
		}
	}
	res := mustRunEngines(t, g, prog, WithSeed(1), WithFaults(plan))
	want := []SlotState{SlotSuccess, SlotSuccess, SlotCollision, SlotSuccess, SlotSuccess}
	for v, r := range res.Results {
		if !reflect.DeepEqual(r, want) {
			t.Errorf("node %d observed %v, want %v", v, r, want)
		}
	}
	if res.Metrics.SlotsJammed != 1 || res.Metrics.SlotsSuccess != 4 {
		t.Errorf("SlotsJammed, SlotsSuccess = %d, %d, want 1, 4",
			res.Metrics.SlotsJammed, res.Metrics.SlotsSuccess)
	}
}

// TestFaultDefaultFaults checks that the process-wide default plan applies
// when no WithFaults option is given and that WithFaults(nil) overrides it.
func TestFaultDefaultFaults(t *testing.T) {
	g, err := graph.Path(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("drop:0@1-")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c Node) Machine {
		got := 0
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round == 0 {
					c.SendTo(1-c.ID(), "hi")
					return false
				}
				got = len(in.Msgs)
				return true
			},
			result: func() any { return got },
		}
	}
	old := DefaultFaults
	DefaultFaults = plan
	defer func() { DefaultFaults = old }()

	res := mustRunEngines(t, g, prog, WithSeed(1))
	if res.Results[0] != 0 || res.Results[1] != 0 || res.Metrics.DroppedFault != 2 {
		t.Errorf("default plan not applied: %v, %+v", res.Results, res.Metrics)
	}
	res = mustRunEngines(t, g, prog, WithSeed(1), WithFaults(nil))
	if res.Results[0] != 1 || res.Results[1] != 1 || res.Metrics.DroppedFault != 0 {
		t.Errorf("WithFaults(nil) did not override the default: %v, %+v", res.Results, res.Metrics)
	}
}

// TestFaultNativeSleepDelay checks the step engine's pending-message path
// against sleeping machines: with every live node asleep and a delayed
// message in flight, the engine must keep ticking (not declare quiescence)
// and wake the recipient at the fault-assigned round.
func TestFaultNativeSleepDelay(t *testing.T) {
	g, err := graph.Path(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("delay:0@1/d2")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		prog := func(c Node) Machine {
			return &sleepDelayMachine{c: c}
		}
		res, err := RunStep(g, prog, WithSeed(1), WithWorkers(workers), WithFaults(plan))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Normal arrival round 1, delayed 2 rounds to 3.
		if res.Results[1] != 3 {
			t.Errorf("workers=%d: woke at round %v, want 3", workers, res.Results[1])
		}
		if res.Metrics.Delayed != 1 {
			t.Errorf("workers=%d: Delayed = %d, want 1", workers, res.Metrics.Delayed)
		}
	}
}

type sleepDelayMachine struct {
	c    Node
	woke int
}

func (m *sleepDelayMachine) Step(in Input) bool {
	if in.Round == 0 {
		if m.c.ID() == 0 {
			m.c.SendTo(1, "ping")
			return true
		}
		m.c.Sleep()
		return false
	}
	if len(in.Msgs) > 0 {
		m.woke = in.Round
		return true
	}
	m.c.Sleep()
	return false
}

func (m *sleepDelayMachine) Result() any { return m.woke }

// TestFaultStressEquivalence is the fault determinism gate at the sim
// level: a randomized program under a plan combining every fault kind must
// produce identical transcripts on both engines at any worker count.
func TestFaultStressEquivalence(t *testing.T) {
	g, err := graph.RandomConnected(20, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse(
		"seed:11;crash:3@4;crash:7@6;drop:2@2-6;delay:*@1-/d2/p0.15;dup:1@3-9/p0.5;jam:2-4/p0.6")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c Node) Machine {
		sum := uint64(0)
		mix := func(vals ...uint64) {
			for _, v := range vals {
				sum = sum*0x100000001b3 + v
			}
		}
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round > 0 {
					mix(uint64(in.Round), uint64(in.Slot.State), uint64(in.Slot.From))
					if p, ok := in.Slot.Payload.(int); ok {
						mix(uint64(p))
					}
					for _, m := range in.Msgs {
						mix(uint64(m.From), uint64(m.EdgeID), uint64(m.Payload.(int)))
					}
				}
				if in.Round == 12 {
					return true
				}
				for l := 0; l < c.Degree(); l++ {
					if c.Rand().Intn(3) == 0 {
						c.Send(l, int(c.Rand().Intn(1000)))
					}
				}
				if c.Rand().Intn(5) == 0 {
					c.Broadcast(int(c.ID())*100 + in.Round)
				}
				return false
			},
			result: func() any { return sum },
		}
	}
	res := mustRunEngines(t, g, prog, WithSeed(9), WithFaults(plan))
	if res.Metrics.Crashed != 2 {
		t.Errorf("Crashed = %d, want 2", res.Metrics.Crashed)
	}
	if res.Metrics.SlotsJammed == 0 || res.Metrics.Delayed == 0 ||
		res.Metrics.Duplicated == 0 || res.Metrics.DroppedFault == 0 {
		t.Errorf("plan did not exercise every fault kind: %+v", res.Metrics)
	}
}

// TestFaultPartitionWindowHeal checks the chaos-v2 partition rule: with
// seed 1 the 2-group split of Path(3) isolates node 1 from both neighbors
// (verified by the group-stability test in internal/fault), so every
// point-to-point message crossing the cut during rounds 3-5 is dropped and
// delivery resumes the round the window heals. The multiaccess channel is
// deliberately unaffected: a broadcast from inside the minority component
// still reaches the whole network mid-partition.
func TestFaultPartitionWindowHeal(t *testing.T) {
	g, err := graph.Path(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("seed:1;partition:2@3-5")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c Node) Machine {
		var from0, from2 []int
		var heard []string
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					if m.From == 0 {
						from0 = append(from0, m.Payload.(int))
					} else {
						from2 = append(from2, m.Payload.(int))
					}
				}
				if s, ok := in.Slot.Payload.(string); ok && in.Slot.State == SlotSuccess {
					heard = append(heard, fmt.Sprintf("%s@%d", s, in.Round))
				}
				if in.Round == 8 {
					return true
				}
				switch c.ID() {
				case 0, 2:
					c.SendTo(1, in.Round)
				case 1:
					c.SendTo(0, in.Round)
					if in.Round == 3 { // mid-partition broadcast
						c.Broadcast("cut?")
					}
				}
				return false
			},
			result: func() any {
				if c.ID() == 1 {
					return fmt.Sprintf("%v %v", from0, from2)
				}
				return fmt.Sprintf("%v", heard)
			},
		}
	}
	res := mustRunEngines(t, g, prog, WithSeed(1), WithFaults(plan))
	// Sends of compute rounds 2..4 would arrive at 3..5 — the window.
	if want := "[0 1 5 6 7] [0 1 5 6 7]"; res.Results[1] != want {
		t.Errorf("node 1 received %q, want %q", res.Results[1], want)
	}
	// The channel ignores the partition: the broadcast lands everywhere.
	for _, v := range []graph.NodeID{0, 2} {
		if want := "[cut?@4]"; res.Results[v] != want {
			t.Errorf("node %d heard %q, want %q", v, res.Results[v], want)
		}
	}
	// Six cut crossings into node 1 plus three from it (rounds 3..5, both
	// directions on edge 0, one direction on edge 1).
	if res.Metrics.PartitionedDrop != 9 {
		t.Errorf("PartitionedDrop = %d, want 9", res.Metrics.PartitionedDrop)
	}
	if res.Metrics.DroppedFault != 0 {
		t.Errorf("DroppedFault = %d, want 0 (partition drops count separately)", res.Metrics.DroppedFault)
	}
}

// TestFaultRestart checks crash-restart revival: the victim's replacement
// incarnation re-runs the program from local round 0 with reset protocol
// state and a fresh RNG stream (nodeSeedAt incarnation 1), and its result
// replaces the dead incarnation's.
func TestFaultRestart(t *testing.T) {
	g, err := graph.Path(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash:2@3;restart:2@6")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c Node) Machine {
		if c.ID() == 2 {
			return &stepFuncs{
				step: func(in Input) bool {
					switch in.Round {
					case 0:
						c.SendTo(1, c.Rand().Int63()) // one stream probe per incarnation
					case 4:
						return true
					default:
						c.SendTo(1, in.Round)
					}
					return false
				},
				result: func() any { return "done" },
			}
		}
		var vals []string
		var rngs []int64
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					switch p := m.Payload.(type) {
					case int64:
						rngs = append(rngs, p)
					case int:
						vals = append(vals, fmt.Sprintf("%d@%d", p, in.Round))
					}
				}
				return in.Round == 12
			},
			result: func() any { return fmt.Sprintf("%v %v", vals, rngs) },
		}
	}
	res := mustRunEngines(t, g, prog, WithSeed(1), WithFaults(plan))
	// Incarnation 0 completes local rounds 0..2 (sends arrive at global
	// rounds 1..3), then crashes. The restart at round 6 re-runs the
	// program: local rounds 0..3 land at global 7..10. Each incarnation's
	// round-0 probe draws the first value of its own derived stream.
	rand0, _ := newNodeRand(nodeSeedAt(1, 2, 0), 0)
	rand1, _ := newNodeRand(nodeSeedAt(1, 2, 1), 0)
	probe0 := rand0.Int63()
	probe1 := rand1.Int63()
	if probe0 == probe1 {
		t.Fatalf("incarnation streams collide: %d", probe0)
	}
	want := fmt.Sprintf("[1@2 2@3 1@8 2@9 3@10] [%d %d]", probe0, probe1)
	if res.Results[1] != want {
		t.Errorf("node 1 received %q, want %q", res.Results[1], want)
	}
	// The second incarnation ran to completion and owns the result slot.
	if res.Results[2] != "done" {
		t.Errorf("node 2 result = %v, want %q (replacement incarnation's)", res.Results[2], "done")
	}
	if res.Metrics.Crashed != 1 || res.Metrics.Restarted != 1 {
		t.Errorf("Crashed, Restarted = %d, %d, want 1, 1",
			res.Metrics.Crashed, res.Metrics.Restarted)
	}
}

// TestMachineRestartOnBothEngines: a restart revival re-runs a StepProgram's
// init hook on either engine — in node order on the scheduler, so the hook's
// unsynchronized bookkeeping is race-free — with the incarnation's RNG
// stream, and an init hook that fails or sends on revival aborts the run
// with the same error on both engines.
func TestMachineRestartOnBothEngines(t *testing.T) {
	g := path(t, 3)
	plan, err := fault.Parse("crash:2@3;restart:2@6")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(revive func(c Node, incarnation int)) StepProgram {
		built := map[graph.NodeID]int{}
		return func(c Node) Machine {
			built[c.ID()]++
			if revive != nil && built[c.ID()] > 1 {
				revive(c, built[c.ID()]-1)
			}
			probe := c.Rand().Int63()
			var heard []int64
			return &stepFuncs{
				step: func(in Input) bool {
					for _, m := range in.Msgs {
						heard = append(heard, m.Payload.(int64))
					}
					if c.ID() == 2 && in.Round == 0 {
						c.SendTo(1, probe)
					}
					return in.Round == 10
				},
				result: func() any { return fmt.Sprint(heard) },
			}
		}
	}
	var results [2]*Result
	for i, e := range []Engine{EngineGoroutine, EngineStep} {
		res, err := RunStep(g, prog(nil), WithFaults(plan), WithEngine(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if res.Metrics.Restarted != 1 {
			t.Errorf("%v: Restarted = %d, want 1", e, res.Metrics.Restarted)
		}
		results[i] = res
		for _, refusal := range []struct {
			revive func(Node, int)
			want   string
		}{
			{func(c Node, i int) { c.Failf("revival %d refused", i) }, "sim: node 2: revival 1 refused"},
			{func(c Node, _ int) { c.SendTo(1, int64(0)) }, "sim: step program for node 2 sent or wrote the channel during init"},
		} {
			if _, err := RunStep(g, prog(refusal.revive), WithFaults(plan), WithEngine(e)); err == nil || err.Error() != refusal.want {
				t.Errorf("%v: refused revival: err = %v, want %q", e, err, refusal.want)
			}
		}
	}
	if !reflect.DeepEqual(results[0].Results, results[1].Results) || results[0].Metrics != results[1].Metrics {
		t.Errorf("engines diverge:\n goroutine: %v %+v\n step:      %v %+v",
			results[0].Results, results[0].Metrics, results[1].Results, results[1].Metrics)
	}
	if heard := results[1].Results[1].(string); len(strings.Fields(heard)) != 2 {
		t.Errorf("node 1 heard %s, want one probe per incarnation of node 2", heard)
	}
}

// TestFaultRecurringWindow checks the /eN modifier: a 2-round drop window
// recurring every 4 rounds fires at deliver rounds 2-3, 6-7, 10-11.
func TestFaultRecurringWindow(t *testing.T) {
	g, err := graph.Path(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("drop:0@2-3/e4")
	if err != nil {
		t.Fatal(err)
	}
	prog := relayRounds(12)
	res := mustRunEngines(t, g, prog, WithSeed(1), WithFaults(plan))
	// Arrival rounds 2,3 then every 4: 2,3,6,7,10,11 dropped — the sends
	// of compute rounds 1,2,5,6,9,10.
	if want := []int{0, 3, 4, 7, 8, 11}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.DroppedFault != 6 {
		t.Errorf("DroppedFault = %d, want 6", res.Metrics.DroppedFault)
	}
}

// TestFaultSkewRequiresSynchronizer checks the capability gate: skew rules
// only mean something where a synchronizer simulates per-node clocks, so a
// plain round-synchronous run must refuse the plan.
func TestFaultSkewRequiresSynchronizer(t *testing.T) {
	g, err := graph.Path(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("skew:0@1-4/d2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = runEngines(t, g, relayRounds(1), WithSeed(1), WithFaults(plan))
	if err == nil {
		t.Fatal("skew plan accepted without a synchronizer")
	}
	want := "fault: rule 0 (skew:0@1-4/d2): skew applies only to synchronizer runs (the §7.1 async layer)"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

// TestFaultSkew checks per-sender clock skew under WithSynchronizer: a
// message leaving the skewed node during the window arrives /dN rounds
// late, like a delay but keyed on the sender, and counts as Skewed.
func TestFaultSkew(t *testing.T) {
	g, err := graph.Path(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("skew:0@1-3/d3")
	if err != nil {
		t.Fatal(err)
	}
	prog := arrivals(10, 0, 4)
	res := mustRunEngines(t, g, prog, WithSeed(1), WithFaults(plan), WithSynchronizer())
	// m0 (normal arrival 1, inside the window) slips 3 rounds to 4; m4
	// (arrival 5, after the window) is on time.
	if want := []string{"m0@4", "m4@5"}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.Skewed != 1 || res.Metrics.Delayed != 0 {
		t.Errorf("Skewed, Delayed = %d, %d, want 1, 0",
			res.Metrics.Skewed, res.Metrics.Delayed)
	}
}
