package sim

// alloc_test.go asserts the allocation diet: a steady-state native round —
// every node stepping, sending, and receiving — must allocate nothing
// beyond what the machines themselves allocate. The assertion is
// differential: total allocations of a long run minus a short run, divided
// by the extra rounds, must be (near-)zero, so engine setup costs cancel
// out.

import (
	"testing"
)

// dietMachine is an allocation-free relay: every node forwards a constant
// payload on link 0 each round until the target round.
type dietMachine struct {
	c      Node
	rounds int
}

func (m dietMachine) Step(in Input) bool {
	if in.Round == m.rounds {
		return true
	}
	m.c.Send(0, struct{}{})
	return false
}

func (m dietMachine) Result() any { return nil }

func stepAllocsPerRound(t *testing.T, workers int) float64 {
	t.Helper()
	const n = 1024 // above inlineThreshold, so multi-worker runs use the gate
	g := ring(t, n)
	allocsAt := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := RunStep(g, func(c Node) Machine {
				return dietMachine{c: c, rounds: rounds}
			}, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Messages != int64(n*rounds) {
				t.Fatalf("messages = %d", res.Metrics.Messages)
			}
		})
	}
	const short, long = 50, 1050
	return (allocsAt(long) - allocsAt(short)) / float64(long-short)
}

func TestStepSteadyStateZeroAlloc(t *testing.T) {
	if perRound := stepAllocsPerRound(t, 1); perRound > 0.01 {
		t.Errorf("steady-state native round allocates %.3f objects/round, want 0", perRound)
	}
}

func TestStepSteadyStateZeroAllocMultiWorker(t *testing.T) {
	// The gate parks and wakes workers without allocating; a small budget
	// absorbs one-time goroutine stack growth.
	if perRound := stepAllocsPerRound(t, 4); perRound > 0.05 {
		t.Errorf("steady-state 4-worker round allocates %.3f objects/round, want 0", perRound)
	}
}
