// Package ctxescape is the ctxescape analyzer's fixture.
package ctxescape

import "sim"

var leaked *sim.StepCtx // want "package-level leaked holds a .sim context"

var ctxCh = make(chan *sim.StepCtx)

var leakedNode sim.Node // want "package-level leakedNode holds a .sim context"

var nodeCh = make(chan sim.Node)

type machine struct {
	c     *sim.StepCtx
	other *sim.Ctx
}

type registry struct {
	all []*sim.StepCtx
}

func construct(c *sim.StepCtx) *machine {
	return &machine{c: c} // ok: composite-literal construction is the pattern
}

func escapes(c *sim.StepCtx, g *sim.Ctx, m *machine, r *registry) {
	leaked = c   // want "stored into package-level leaked"
	ctxCh <- c   // want "sent over a channel"
	m.c = c      // want "re-aliased into field c after construction"
	m.other = g  // want "re-aliased into field other"
	r.all[0] = c // want "stored into a collection element"
	go func() {
		c.Sleep() // want "captured by a goroutine"
	}()
	go handle(c) // want "passed to a goroutine"
}

// nodeEscapes repeats the escapes through the sim.Node interface, the type
// machines hold their handle as.
func nodeEscapes(n sim.Node, c *sim.StepCtx) {
	leakedNode = n // want "stored into package-level leakedNode"
	leakedNode = c // want "stored into package-level leakedNode"
	nodeCh <- n    // want "sent over a channel"
	go func() {
		n.Sleep() // want "captured by a goroutine"
	}()
	go handleNode(n) // want "passed to a goroutine"
}

func handleNode(n sim.Node) {}

type nodeMachine struct{ n sim.Node }

func legalNode(n sim.Node) *nodeMachine {
	n.Sleep()
	handleNode(n)
	return &nodeMachine{n: n} // ok: composite-literal construction
}

func collections(a, b *sim.StepCtx) {
	_ = []*sim.StepCtx{a, b} // want "collection of .sim contexts"
}

func handle(c *sim.StepCtx) {}

func legal(c *sim.StepCtx) {
	local := c // ok: locals within the node's own call tree
	local.Sleep()
	handle(c) // ok: plain call, same goroutine
	go func() {
		// ok: goroutine that touches no context
	}()
}
