package sim

import (
	"errors"
	"testing"

	"repro/internal/graph"
)

func ring(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Ring(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func path(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Path(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunImmediateHalt(t *testing.T) {
	// Every node halts in round 0 with a result: one idle round, and each
	// node's Result is collected although it never saw a second round.
	res := mustRunEngines(t, ring(t, 5), func(c Node) Machine {
		id := int(c.ID())
		return &stepFuncs{
			step:   func(Input) bool { return true },
			result: func() any { return id },
		}
	})
	if res.Metrics.Rounds != 1 || res.Metrics.Messages != 0 || res.Metrics.SlotsIdle != 1 {
		t.Errorf("metrics = %+v", res.Metrics)
	}
	for v, r := range res.Results {
		if r != v {
			t.Errorf("result[%d] = %v", v, r)
		}
	}
}

func TestMessageDelivery(t *testing.T) {
	// Node 1 sends its id to every neighbor in round 0; both ends of the
	// path record what arrived in round 1.
	res := mustRunEngines(t, path(t, 3), func(c Node) Machine {
		var got Payload
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round == 0 {
					if c.ID() == 1 {
						for l := range c.Adj() {
							c.Send(l, int(c.ID()))
						}
					}
					return false
				}
				if c.ID() != 1 {
					if len(in.Msgs) != 1 || in.Msgs[0].From != 1 {
						c.Failf("inbox %+v", in.Msgs)
					}
					got = in.Msgs[0].Payload
				}
				return true
			},
			result: func() any { return got },
		}
	})
	if res.Metrics.Messages != 2 {
		t.Errorf("Messages = %d, want 2", res.Metrics.Messages)
	}
	if res.Results[0] != 1 || res.Results[1] != nil || res.Results[2] != 1 {
		t.Errorf("results = %v", res.Results)
	}
}

func TestInboxSorted(t *testing.T) {
	// On the complete graph every other node sends to node 0, each on its
	// link to it; node 0's inbox must come out sorted by sender whatever
	// order the links and shards staged the messages in.
	const n = 9
	g, err := graph.Complete(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	mustRunEngines(t, g, func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if in.Round == 0 {
				if c.ID() != 0 {
					c.SendTo(0, int(c.ID()))
				}
				return c.ID() != 0
			}
			if len(in.Msgs) != n-1 {
				c.Failf("got %d msgs, want %d", len(in.Msgs), n-1)
			}
			for i, m := range in.Msgs {
				if int(m.From) != i+1 || m.Payload.(int) != i+1 {
					c.Failf("inbox[%d] = %+v", i, m)
				}
			}
			return true
		}}
	}, WithWorkers(3))
}

func TestChannelResolution(t *testing.T) {
	// The same writers broadcast in each of three rounds: the channel is
	// resolved afresh every round and each round's slot counted once.
	const rounds = 3
	for _, tt := range []struct {
		name    string
		writers []graph.NodeID
		want    SlotState
	}{
		{"idle", nil, SlotIdle},
		{"success", []graph.NodeID{2}, SlotSuccess},
		{"collision two", []graph.NodeID{1, 3}, SlotCollision},
		{"collision all", []graph.NodeID{0, 1, 2, 3, 4}, SlotCollision},
	} {
		t.Run(tt.name, func(t *testing.T) {
			writerSet := make(map[graph.NodeID]bool)
			for _, w := range tt.writers {
				writerSet[w] = true
			}
			res := mustRunEngines(t, ring(t, 5), func(c Node) Machine {
				return &stepFuncs{step: func(in Input) bool {
					if in.Round > 0 {
						if in.Slot.State != tt.want {
							c.Failf("round %d: slot %v, want %v", in.Round, in.Slot.State, tt.want)
						}
						if tt.want == SlotSuccess &&
							(in.Slot.From != tt.writers[0] || in.Slot.Payload.(int) != in.Round-1) {
							c.Failf("round %d: slot %+v", in.Round, in.Slot)
						}
					}
					if in.Round == rounds {
						return true
					}
					if writerSet[c.ID()] {
						c.Broadcast(in.Round)
					}
					return false
				}}
			})
			m := res.Metrics
			var got int64
			switch tt.want {
			case SlotIdle:
				got = m.SlotsIdle - 1 // the final round's slot is idle too
			case SlotSuccess:
				got = m.SlotsSuccess
			case SlotCollision:
				got = m.SlotsCollision
			}
			if got != rounds {
				t.Errorf("%v slots = %d, want %d (metrics %+v)", tt.want, got, rounds, m)
			}
		})
	}
}

func TestProgramErrorAborts(t *testing.T) {
	// Node 2 fails in round 1 while every other node would run forever:
	// the failure alone ends the run, and its error stays reachable with
	// errors.Is.
	wantErr := errors.New("boom")
	_, err := runEngines(t, ring(t, 4), func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if c.ID() == 2 && in.Round == 1 {
				c.Failf("gave up: %w", wantErr)
			}
			return false
		}}
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestNodePanicIsReported(t *testing.T) {
	// A panic in a later round, with the other nodes still running, is
	// reported as the panicking node's error rather than crashing the test.
	_, err := runEngines(t, ring(t, 6), func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if c.ID() == 4 && in.Round == 2 {
				panic(errors.New("kaboom"))
			}
			return false
		}}
	})
	if err == nil || err.Error() != "sim: node 4 panicked: kaboom" {
		t.Fatalf("err = %v, want node 4 panic", err)
	}
}

func TestMaxRounds(t *testing.T) {
	// One node that never halts keeps the run going after all the others
	// have halted, until the round budget ends it.
	_, err := runEngines(t, ring(t, 3), func(c Node) Machine {
		return &stepFuncs{step: func(Input) bool { return c.ID() != 1 }}
	}, WithMaxRounds(10))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestRoundNumbering(t *testing.T) {
	// Round is already 0 when the machine is built, and a node that slept
	// through rounds sees the round it wakes in, not the count of its steps.
	mustRunEngines(t, path(t, 2), func(c Node) Machine {
		if c.Round() != 0 {
			t.Errorf("node %d built in round %d", c.ID(), c.Round())
		}
		return &stepFuncs{step: func(in Input) bool {
			if in.Round != c.Round() {
				c.Failf("in.Round %d != Round() %d", in.Round, c.Round())
			}
			if c.ID() == 0 {
				if in.Round == 3 {
					c.SendTo(1, "wake")
				}
				return in.Round == 3
			}
			if len(in.Msgs) == 0 {
				c.Sleep()
				return false
			}
			if in.Round != 4 {
				c.Failf("woke in round %d, want 4", in.Round)
			}
			return true
		}}
	})
}

func TestDoubleSendPanics(t *testing.T) {
	// Send by link and SendTo by neighbor name the same edge: using both in
	// one round is a double send.
	_, err := runEngines(t, path(t, 2), func(c Node) Machine {
		return &stepFuncs{step: func(Input) bool {
			if c.ID() == 0 {
				c.Send(0, 1)
				c.SendTo(1, 2)
			}
			return true
		}}
	})
	if err == nil || err.Error() != "sim: node 0 panicked: sim: node 0 sent twice on edge 0 in round 0" {
		t.Fatalf("err = %v, want double-send error", err)
	}
}

func TestDroppedToHalted(t *testing.T) {
	// Node 0 halts at once; both its ring neighbors send to it in round 1
	// and again in round 2, then halt in round 3. Every late message is
	// dropped and counted.
	res := mustRunEngines(t, ring(t, 4), func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if c.ID() == 0 {
				return true
			}
			if l, ok := c.Link(0); ok && in.Round >= 1 && in.Round <= 2 {
				c.Send(l, "late")
			}
			return in.Round == 3
		}}
	})
	if res.Metrics.DroppedHalted != 4 {
		t.Errorf("DroppedHalted = %d, want 4", res.Metrics.DroppedHalted)
	}
}

func TestBroadcastHeardByAll(t *testing.T) {
	res := mustRunEngines(t, ring(t, 7), func(c Node) Machine {
		var heard Payload
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round == 0 {
					if c.ID() == 3 {
						c.Broadcast("hello")
					}
					return false
				}
				heard = in.Slot.Payload
				return true
			},
			result: func() any { return heard },
		}
	})
	for v, r := range res.Results {
		if r != "hello" {
			t.Errorf("node %d heard %v", v, r)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g, err := graph.RandomConnected(20, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if in.Round == 10 {
				return true
			}
			if c.Rand().Intn(3) == 0 {
				c.Broadcast(int(c.ID()))
			}
			if c.Rand().Intn(2) == 0 && c.Degree() > 0 {
				c.Send(c.Rand().Intn(c.Degree()), in.Round)
			}
			return false
		}}
	}
	a := mustRunEngines(t, g, prog, WithSeed(99))
	b := mustRunEngines(t, g, prog, WithSeed(99))
	if a.Metrics != b.Metrics {
		t.Errorf("nondeterministic: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

func TestPerNodeRNGsDiffer(t *testing.T) {
	res := mustRunEngines(t, ring(t, 8), func(c Node) Machine {
		var draw int64
		return &stepFuncs{
			step: func(Input) bool {
				draw = c.Rand().Int63()
				return true
			},
			result: func() any { return draw },
		}
	}, WithSeed(5))
	seen := make(map[any]bool)
	for _, r := range res.Results {
		if seen[r] {
			t.Fatal("two nodes drew identical first random values")
		}
		seen[r] = true
	}
}

func TestDoubleBroadcastPanics(t *testing.T) {
	_, err := runEngines(t, path(t, 2), func(c Node) Machine {
		return &stepFuncs{step: func(Input) bool {
			c.Broadcast(1)
			c.Broadcast(2)
			return true
		}}
	})
	if err == nil {
		t.Fatal("double broadcast must abort the run with an error")
	}
}

func TestSendToAndLink(t *testing.T) {
	mustRunEngines(t, path(t, 3), func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if in.Round == 0 {
				if c.ID() == 0 {
					if _, ok := c.Link(2); ok {
						c.Failf("node 0 should not be adjacent to 2")
					}
					c.SendTo(1, "x")
				}
				return false
			}
			if c.ID() == 1 {
				if len(in.Msgs) != 1 || in.Msgs[0].Payload != "x" {
					c.Failf("node 1 inbox: %v", in.Msgs)
				}
				// LinkOf must give back the local index of the arrival edge.
				l := c.LinkOf(in.Msgs[0].EdgeID)
				if c.Adj()[l].To != 0 {
					c.Failf("LinkOf points at wrong neighbor")
				}
			}
			return true
		}}
	})
}

func TestStaggeredHalting(t *testing.T) {
	// Node v halts in round v; the engine must keep running until the last.
	res := mustRunEngines(t, ring(t, 6), func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool { return in.Round == int(c.ID()) }}
	})
	if res.Metrics.Rounds != 6 {
		t.Errorf("Rounds = %d, want 6", res.Metrics.Rounds)
	}
}

func TestSlotStateString(t *testing.T) {
	if SlotIdle.String() != "idle" || SlotSuccess.String() != "success" ||
		SlotCollision.String() != "collision" || SlotState(0).String() != "SlotState(0)" {
		t.Error("SlotState.String mismatch")
	}
}

func TestMetricsAddAndDerived(t *testing.T) {
	a := Metrics{Rounds: 2, Messages: 10, SlotsIdle: 1, SlotsSuccess: 2, SlotsCollision: 3}
	b := Metrics{Rounds: 3, Messages: 5, SlotsIdle: 4, SlotsSuccess: 5, SlotsCollision: 6}
	a.Add(&b)
	if a.Rounds != 5 || a.Messages != 15 || a.SlotsIdle != 5 || a.SlotsSuccess != 7 || a.SlotsCollision != 9 {
		t.Errorf("Add result: %+v", a)
	}
	if a.Slots() != 16 {
		t.Errorf("Slots = %d, want 16", a.Slots())
	}
	if a.Communication() != 20 {
		t.Errorf("Communication = %d, want 20", a.Communication())
	}
}
