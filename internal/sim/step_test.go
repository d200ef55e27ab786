package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// stepFuncs adapts plain closures to a Machine for tests.
type stepFuncs struct {
	step   func(in Input) bool
	result func() any
}

func (m *stepFuncs) Step(in Input) bool { return m.step(in) }
func (m *stepFuncs) Result() any {
	if m.result == nil {
		return nil
	}
	return m.result()
}

// engineRuns are the configurations every engine-agnostic test runs: the
// goroutine engine (the oracle) and the step engine at one and four workers.
var engineRuns = []struct {
	name string
	opts []Option
}{
	{"goroutine", []Option{WithEngine(EngineGoroutine)}},
	{"step-w1", []Option{WithEngine(EngineStep), WithWorkers(1)}},
	{"step-w4", []Option{WithEngine(EngineStep), WithWorkers(4)}},
}

// runEngines runs prog under every engine configuration and requires the
// same outcome from each: the same error text, or the same results and
// metrics. It returns the goroutine engine's outcome.
func runEngines(t *testing.T, g graph.Topology, prog StepProgram, opts ...Option) (*Result, error) {
	t.Helper()
	var ref *Result
	var refErr error
	for i, r := range engineRuns {
		res, err := RunStep(g, prog, append(append([]Option{}, opts...), r.opts...)...)
		if i == 0 {
			ref, refErr = res, err
			continue
		}
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: err = %v, goroutine engine's = %v", r.name, err, refErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(ref.Results, res.Results) {
			t.Fatalf("%s results diverge:\n goroutine: %#v\n got:       %#v", r.name, ref.Results, res.Results)
		}
		if ref.Metrics != res.Metrics {
			t.Fatalf("%s metrics diverge:\n goroutine: %+v\n got:       %+v", r.name, ref.Metrics, res.Metrics)
		}
	}
	return ref, refErr
}

// mustRunEngines is runEngines for runs that must succeed.
func mustRunEngines(t *testing.T, g graph.Topology, prog StepProgram, opts ...Option) *Result {
	t.Helper()
	res, err := runEngines(t, g, prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStepImmediateHalt(t *testing.T) {
	res := mustRunEngines(t, ring(t, 5), func(c Node) Machine {
		return &stepFuncs{step: func(Input) bool { return true }}
	})
	if res.Metrics.Rounds != 1 || res.Metrics.Messages != 0 || res.Metrics.SlotsIdle != 1 {
		t.Errorf("metrics = %+v", res.Metrics)
	}
}

func TestStepMessageDeliveryAndSorting(t *testing.T) {
	// All ring neighbors of node 0 send their id to it in round 0; its
	// round-1 inbox must hold both messages, sorted by sender, with their
	// payloads intact.
	g := ring(t, 6)
	res := mustRunEngines(t, g, func(c Node) Machine {
		var got []int
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round == 0 {
					if c.ID() != 0 {
						if l, ok := c.Link(0); ok {
							c.Send(l, int(c.ID()))
						}
						return true
					}
					return false
				}
				if len(in.Msgs) != 2 || in.Msgs[0].From >= in.Msgs[1].From {
					c.Failf("inbox %v", in.Msgs)
				}
				for _, m := range in.Msgs {
					if m.Payload.(int) != int(m.From) {
						c.Failf("message %+v", m)
					}
					got = append(got, m.Payload.(int))
				}
				return true
			},
			result: func() any { return got },
		}
	})
	if res.Metrics.Messages != 2 {
		t.Errorf("Messages = %d, want 2", res.Metrics.Messages)
	}
	if want := []int{1, 5}; !reflect.DeepEqual(res.Results[0], want) {
		t.Errorf("node 0 received %v, want %v", res.Results[0], want)
	}
}

func TestStepChannelResolution(t *testing.T) {
	for _, tt := range []struct {
		name    string
		writers []graph.NodeID
		want    SlotState
	}{
		{"idle", nil, SlotIdle},
		{"success", []graph.NodeID{2}, SlotSuccess},
		{"collision", []graph.NodeID{1, 3}, SlotCollision},
	} {
		t.Run(tt.name, func(t *testing.T) {
			writerSet := make(map[graph.NodeID]bool)
			for _, w := range tt.writers {
				writerSet[w] = true
			}
			res := mustRunEngines(t, ring(t, 5), func(c Node) Machine {
				return &stepFuncs{step: func(in Input) bool {
					if in.Round == 0 {
						if writerSet[c.ID()] {
							c.Broadcast(int(c.ID()) * 10)
						}
						return false
					}
					if in.Slot.State != tt.want {
						c.Failf("slot %v, want %v", in.Slot.State, tt.want)
					}
					if tt.want == SlotSuccess &&
						(in.Slot.From != tt.writers[0] || in.Slot.Payload.(int) != int(tt.writers[0])*10) {
						c.Failf("slot %+v", in.Slot)
					}
					return true
				}}
			})
			m := res.Metrics
			switch tt.want {
			case SlotIdle:
				if m.SlotsIdle != 2 {
					t.Errorf("SlotsIdle = %d, want 2", m.SlotsIdle)
				}
			case SlotSuccess:
				if m.SlotsSuccess != 1 {
					t.Errorf("SlotsSuccess = %d", m.SlotsSuccess)
				}
			case SlotCollision:
				if m.SlotsCollision != 1 {
					t.Errorf("SlotsCollision = %d", m.SlotsCollision)
				}
			}
		})
	}
}

func TestStepResultHook(t *testing.T) {
	res, err := RunStep(ring(t, 4), func(c Node) Machine {
		id := c.ID()
		return &stepFuncs{
			step:   func(Input) bool { return true },
			result: func() any { return int(id) * 11 },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res.Results {
		if r != v*11 {
			t.Errorf("result[%d] = %v", v, r)
		}
	}
}

func TestStepRoundNumbering(t *testing.T) {
	mustRunEngines(t, ring(t, 3), func(c Node) Machine {
		want := 0
		return &stepFuncs{step: func(in Input) bool {
			if in.Round != want || c.Round() != want {
				c.Failf("round = %d/%d, want %d", in.Round, c.Round(), want)
			}
			want++
			return in.Round == 3
		}}
	})
}

func TestStepSleepWave(t *testing.T) {
	// A token travels around the ring; every node sleeps until it arrives.
	const n = 64
	res, err := RunStep(ring(t, n), func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool {
			relay := func() {
				// Forward to the neighbor with the next id (mod n).
				next := graph.NodeID((int(c.ID()) + 1) % n)
				if next != 0 {
					c.SendTo(next, "token")
				}
			}
			if in.Round == 0 {
				if c.ID() == 0 {
					relay()
					return true
				}
				c.Sleep()
				return false
			}
			if len(in.Msgs) == 0 {
				c.Failf("woken with no mail in round %d", in.Round)
			}
			relay()
			return true
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != n || res.Metrics.Messages != n-1 {
		t.Errorf("rounds=%d msgs=%d, want %d and %d", res.Metrics.Rounds, res.Metrics.Messages, n, n-1)
	}
}

func TestStepQuiescenceHitsBudget(t *testing.T) {
	// Everyone sleeps forever with no message ever due: the wedge spins
	// cheap empty rounds to the same ErrMaxRounds the goroutine engine
	// reports for the equivalent blocked program.
	_, err := RunStep(ring(t, 4), func(c Node) Machine {
		return &stepFuncs{step: func(Input) bool {
			c.Sleep()
			return false
		}}
	}, WithMaxRounds(50))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestStepMaxRounds(t *testing.T) {
	_, err := runEngines(t, ring(t, 3), func(c Node) Machine {
		return &stepFuncs{step: func(Input) bool { return false }}
	}, WithMaxRounds(10))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestStepPanicReported(t *testing.T) {
	_, err := runEngines(t, ring(t, 3), func(c Node) Machine {
		return &stepFuncs{step: func(Input) bool {
			if c.ID() == 1 {
				panic("kaboom")
			}
			return false
		}}
	})
	if err == nil || err.Error() != "sim: node 1 panicked: kaboom" {
		t.Fatalf("err = %v, want node 1 panic", err)
	}
}

func TestStepDoubleSendPanics(t *testing.T) {
	_, err := runEngines(t, path(t, 2), func(c Node) Machine {
		return &stepFuncs{step: func(Input) bool {
			c.Send(0, 1)
			c.Send(0, 2)
			return true
		}}
	})
	if err == nil || !strings.Contains(err.Error(), "sent twice") {
		t.Fatalf("err = %v, want double-send error", err)
	}
}

func TestStepDroppedToHalted(t *testing.T) {
	res := mustRunEngines(t, path(t, 2), func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if c.ID() == 0 {
				return true
			}
			if in.Round == 1 {
				c.Send(0, "late")
			}
			return in.Round == 2
		}}
	})
	if res.Metrics.DroppedHalted != 1 {
		t.Errorf("DroppedHalted = %d, want 1", res.Metrics.DroppedHalted)
	}
}

// TestFailfSameOnBothEngines: Failf aborts the run with the same
// `sim: node N: …` error whichever engine runs the machine, wrapping the
// error it formats with %w. The lowest failing node wins.
func TestFailfSameOnBothEngines(t *testing.T) {
	boom := errors.New("boom")
	const want = "sim: node 1: bad round 2: boom"
	_, err := runEngines(t, ring(t, 5), func(c Node) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if in.Round == 2 && c.ID() >= 1 {
				c.Failf("bad round %d: %w", in.Round, boom)
			}
			return false
		}}
	})
	if err == nil || err.Error() != want || !errors.Is(err, boom) {
		t.Errorf("err = %v, want %q wrapping %v", err, want, boom)
	}
}

// TestBadEdgeIDReadsTheSame: resolving an edge id a node does not own is a
// model violation with one wording on both engines and both topology forms,
// the stored form's edge index included.
func TestBadEdgeIDReadsTheSame(t *testing.T) {
	implicit, err := graph.ParseSpec("ring:5", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, edgeID := range []int{-1, 2, 99} {
		want := fmt.Sprintf("sim: node 0 panicked: sim: node 0 has no link with edge id %d", edgeID)
		machine := func(c Node) Machine {
			return &stepFuncs{step: func(Input) bool {
				if c.ID() == 0 {
					c.LinkOf(edgeID)
				}
				return true
			}}
		}
		for _, g := range []graph.Topology{ring(t, 5), implicit} {
			for _, e := range []Engine{EngineGoroutine, EngineStep} {
				if _, err := RunStep(g, machine, WithEngine(e)); err == nil || err.Error() != want {
					t.Errorf("%v on %T, edge %d: err = %v, want %q", e, g, edgeID, err, want)
				}
			}
		}
	}
}

// TestOracleCatchesSleepContractViolation: a machine that sleeps yet counts
// the rounds it sleeps through breaks the Node contract. The step engine
// skips the parked rounds and the goroutine engine steps them, so the two
// engines must disagree — the equivalence suites' oracle has teeth.
func TestOracleCatchesSleepContractViolation(t *testing.T) {
	prog := func(c Node) Machine {
		steps := 0
		return &stepFuncs{
			step: func(in Input) bool {
				steps++
				if c.ID() == 0 {
					if in.Round == 5 {
						c.Send(0, "wake")
						return true
					}
					return false
				}
				if len(in.Msgs) > 0 {
					return true
				}
				c.Sleep()
				return false
			},
			result: func() any { return steps },
		}
	}
	var results [2]any
	for i, e := range []Engine{EngineGoroutine, EngineStep} {
		res, err := RunStep(path(t, 2), prog, WithEngine(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		results[i] = res.Results[1]
	}
	if results[0] != 7 || results[1] != 2 {
		t.Errorf("sleeper stepped %v times on the goroutine engine and %v on the step engine, want 7 and 2", results[0], results[1])
	}
}

// chatterProgram is a randomized machine used to cross-check the engines:
// every transcript-visible artifact (results and metrics) must be identical
// on the goroutine engine and the step engine at any worker count.
func chatterProgram(rounds int) StepProgram {
	return func(c Node) Machine {
		var heard int64
		return &stepFuncs{
			step: func(in Input) bool {
				heard += int64(len(in.Msgs))
				if in.Slot.State == SlotSuccess {
					heard += 1000
				}
				if in.Round == rounds {
					return true
				}
				if c.Rand().Intn(3) == 0 {
					c.Broadcast(int(c.ID()))
				}
				if c.Rand().Intn(2) == 0 && c.Degree() > 0 {
					c.Send(c.Rand().Intn(c.Degree()), in.Round)
				}
				return false
			},
			result: func() any { return heard },
		}
	}
}

func TestChatterMatchesAcrossEngines(t *testing.T) {
	g, err := graph.RandomConnected(40, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRunEngines(t, g, chatterProgram(12), WithSeed(99))
	if res.Metrics.Messages == 0 || res.Metrics.SlotsCollision == 0 {
		t.Errorf("chatter exercised too little: %+v", res.Metrics)
	}
}

// TestStepBarrierOnBothEngines runs one barrier-synchronized flood from
// node 0 as a StepBarrier machine on both engines: the step engine parks
// the passive nodes until a message or the pulse, the goroutine engine
// steps every node every round, and the transcripts must match exactly.
func TestStepBarrierOnBothEngines(t *testing.T) {
	g, err := graph.RandomConnected(30, 45, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRunEngines(t, g, func(c Node) Machine {
		b := NewStepBarrier(c)
		seen := c.ID() == 0
		return &stepFuncs{
			step: func(in Input) bool {
				return b.Step(in, func(in Input) bool {
					if !seen && len(in.Msgs) > 0 {
						seen = true
						for l := 0; l < c.Degree(); l++ {
							c.Send(l, "wave")
						}
					}
					if seen && in.Round == 0 && c.ID() == 0 {
						for l := 0; l < c.Degree(); l++ {
							c.Send(l, "wave")
						}
					}
					return false
				})
			},
			result: func() any { return seen },
		}
	})
	for _, r := range res.Results {
		if r != true {
			t.Fatalf("flood did not reach every node: %v", res.Results)
		}
	}
}

func TestParseEngine(t *testing.T) {
	if e, err := ParseEngine("step"); err != nil || e != EngineStep {
		t.Errorf("ParseEngine(step) = %v, %v", e, err)
	}
	if e, err := ParseEngine("goroutine"); err != nil || e != EngineGoroutine {
		t.Errorf("ParseEngine(goroutine) = %v, %v", e, err)
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("ParseEngine(warp) should fail")
	}
	if EngineStep.String() != "step" || EngineGoroutine.String() != "goroutine" {
		t.Error("Engine.String mismatch")
	}
}

func TestInboxAppendSafe(t *testing.T) {
	// The step engine delivers each round's messages in one arena per shard;
	// a machine appending to its Input.Msgs must reallocate instead of
	// overwriting the next recipient's window. Every node messages its
	// successor, so all the round's inbox windows sit side by side in one
	// arena.
	mustRunEngines(t, ring(t, 8), func(c Node) Machine {
		sum := 0
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round == 0 {
					c.SendTo(graph.NodeID((int(c.ID())+1)%c.N()), int(c.ID())*100)
					return false
				}
				// Abuse the API: grow the inbox slice.
				grown := append(in.Msgs, Message{From: 99, EdgeID: 99, Payload: "junk"})
				_ = grown
				for _, m := range in.Msgs {
					sum += m.Payload.(int)
				}
				return true
			},
			result: func() any { return sum },
		}
	})
}
