package sim

// adapter.go keeps the goroutine+Tick API working on the step engine: each
// node's Program still runs as a blocking goroutine against its Ctx, but it
// is resumed by a goroutineMachine from the step engine's worker pool
// instead of the old central scheduler loop, and its staged sends and
// channel writes are committed through the engine's sharded buffers. The
// round structure, metrics, and per-node RNG derivation are identical to
// the goroutine engine, so both engines produce bit-identical runs.

import (
	"fmt"

	"repro/internal/graph"
)

// runStepAdapter executes a goroutine Program on the step engine.
func runStepAdapter(g graph.Topology, program Program, cfg config) (*Result, error) {
	if cfg.ckpt != nil || cfg.resume != nil {
		// The adapter's machines hold blocked program goroutines, whose
		// stacks cannot be serialized; only native step programs checkpoint.
		return nil, ErrNotCheckpointable
	}
	prog := func(c Node) Machine {
		sc := c.(*StepCtx)
		ctx := newCtx(g, sc.id, cfg.seed)
		// The engine owns the RNG derivation: a crash-restarted node's
		// program must see the incarnation's seed, not the original's
		// (for incarnation 0 the two agree).
		ctx.rngSeed = sc.eng.seedOf(sc.id)
		return &goroutineMachine{sc: sc, ctx: ctx, program: program}
	}
	// Adapter runs share the engine's recycled inbox arenas: an Input and
	// its Msgs are valid only until the Tick that received them returns —
	// the same ownership rule Machine.Step documents. Every program in this
	// repo consumes its messages inside the round, and in exchange adapter
	// delivery allocates nothing in steady state.
	return runStepEngine(g, prog, cfg)
}

// goroutineMachine drives one legacy Program goroutine from Machine.Step.
type goroutineMachine struct {
	sc      *StepCtx
	ctx     *Ctx
	program Program
	started bool
}

// Step resumes the program for one round: round 0 starts the goroutine
// (the code a Program runs before its first Tick), later rounds hand the
// round's input to the Tick the program is blocked in. Once the program
// commits (Tick) or returns, its staged sends and channel write are copied
// into the step engine's buffers.
func (m *goroutineMachine) Step(in Input) bool {
	if !m.started {
		m.started = true
		go m.runProgram()
	} else {
		m.ctx.resume <- in
	}
	ticked := <-m.ctx.done
	m.commitOutputs()
	return !ticked
}

// commitOutputs copies the round's staged sends and channel write from the
// program's Ctx into the engine's per-shard buffers. It runs for every node
// in every round of an adapter run, so it is held to the same contract as
// the native engine's delivery phase: the shard stage and the Ctx's out
// buffer are recycled across rounds, and nothing here may allocate.
//
//mmlint:noalloc
func (m *goroutineMachine) commitOutputs() {
	sd := m.sc.shard()
	for _, o := range m.ctx.out {
		// link -1: Ctx already enforced the one-send-per-link rule.
		sd.stage = append(sd.stage, stagedSend{to: o.to, edgeID: int32(o.edgeID), link: -1, payload: o.payload})
	}
	m.ctx.out = m.ctx.out[:0]
	clear(m.ctx.sentLink)
	if m.ctx.chPending {
		sd.chPending = true
		sd.chWrite = m.ctx.chWrite
		m.ctx.chPending = false
		m.ctx.chWrite = nil
	}
}

// runProgram is the per-node goroutine body, identical in error and panic
// handling to the goroutine engine's.
func (m *goroutineMachine) runProgram() {
	defer func() {
		if r := recover(); r != nil {
			if err := nodeFailure(m.ctx.id, r); err != nil {
				m.sc.eng.recordErr(m.ctx.id, err)
			}
		}
		m.ctx.done <- false
	}()
	if err := m.program(m.ctx); err != nil {
		m.sc.eng.recordErr(m.ctx.id, fmt.Errorf("sim: node %d: %w", m.ctx.id, err))
	}
}

// Result returns whatever the program recorded via Ctx.SetResult.
func (m *goroutineMachine) Result() any { return m.ctx.result }

// abortRun unwinds a program goroutine blocked in Tick when the engine
// aborts the run, exactly as the goroutine engine does: closing resume
// panics the Tick with errAborted, and the final done send is drained.
func (m *goroutineMachine) abortRun() {
	if !m.started {
		return
	}
	close(m.ctx.resume)
	<-m.ctx.done
}
