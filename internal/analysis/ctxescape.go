package analysis

// ctxescape guards the ownership contract of the engines' per-node
// contexts. A *sim.StepCtx (or goroutine-engine *sim.Ctx, or the sim.Node
// interface machines hold either through) is the engine's handle for
// exactly one node: the sanctioned pattern is a StepProgram (or
// Program) capturing its own c — typically into the machine it constructs
// via a composite literal — and every method being called only from that
// node's Step. The ROADMAP's state-compaction tier will turn StepCtx
// storage into shard-local pooled arenas, after which any context reference
// that outlives its round observes recycled state; this analyzer makes the
// sharing patterns that would break illegal now:
//
//	assignment of a ctx into a package-level variable
//	sending a ctx over a channel
//	a ctx captured by (or passed to) the function of a go statement
//	storing ctxs into pointer collections ([]*StepCtx, map[...]*StepCtx
//	  elements) — cross-node aggregation is the engine's job, not a protocol's
//	post-construction field aliasing: x.f = ctx outside a composite literal
//
// Composite-literal construction (&machine{c: c}) stays legal: the machine
// is the node's own state and lives exactly as long as the node.
//
// Matching is by name — a pointer to a named type StepCtx or Ctx, or the
// named interface Node, declared in a package named "sim" — so the analyzer
// keeps working across the planned refactors without importing the engine.

import (
	"go/ast"
	"go/types"
)

// CtxEscape is the context-ownership analyzer.
var CtxEscape = &Analyzer{
	Name: "ctxescape",
	Doc:  "flags *sim.StepCtx/*sim.Ctx/sim.Node values escaping their owning node: globals, channel sends, goroutine captures, pointer collections, field re-aliasing",
	Run:  runCtxEscape,
}

// isCtxPtr reports whether t is *sim.StepCtx, *sim.Ctx, or the sim.Node
// interface a machine holds either through.
func isCtxPtr(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		return types.IsInterface(named) && inSim(named, "Node")
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && (inSim(named, "StepCtx") || inSim(named, "Ctx"))
}

// inSim reports whether named is the type name declared in a package named
// "sim".
func inSim(named *types.Named, name string) bool {
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == "sim" && obj.Name() == name
}

func (p *Pass) exprIsCtx(e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	return ok && tv.Type != nil && isCtxPtr(tv.Type)
}

func runCtxEscape(pass *Pass) error {
	// The engine package itself is the contexts' owner: it allocates them,
	// stores them in its per-node tables, and hands each program goroutine
	// its own ctx — exactly the structural manipulation the analyzer bans
	// for consumers. Ownership transfers are reviewed there, not linted.
	if pass.Pkg.Path() == "repro/internal/sim" {
		return nil
	}
	for _, f := range pass.Files {
		// Package-level vars initialized with a ctx (or of ctx type).
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && !obj.IsField() && obj.Parent() == pass.Pkg.Scope() && isCtxPtr(obj.Type()) {
						pass.Reportf(name.Pos(), "package-level %s holds a *sim context: contexts are per-node engine state and must not outlive their owner", name.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkCtxAssign(pass, n)
			case *ast.SendStmt:
				if pass.exprIsCtx(n.Value) {
					pass.Reportf(n.Value.Pos(), "*sim context sent over a channel: the receiver outlives the owning node's round")
				}
			case *ast.GoStmt:
				checkCtxGo(pass, n)
			case *ast.CompositeLit:
				checkCtxCollection(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCtxAssign flags ctx values assigned into globals, struct fields
// (outside composite construction), or collection elements.
func checkCtxAssign(pass *Pass, s *ast.AssignStmt) {
	for i, l := range s.Lhs {
		if i >= len(s.Rhs) {
			break // tuple assignment from a call can't produce a flagged store
		}
		if !pass.exprIsCtx(s.Rhs[i]) {
			continue
		}
		switch lhs := l.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
				pass.Reportf(s.Pos(), "*sim context re-aliased into field %s after construction: keep the context only in the machine built for its node (composite-literal construction is the sanctioned pattern)", lhs.Sel.Name)
				continue
			}
			// Qualified package identifier: a global in another package.
			if id, ok := lhs.X.(*ast.Ident); ok {
				if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					pass.Reportf(s.Pos(), "*sim context stored into package-level %s.%s", id.Name, lhs.Sel.Name)
				}
			}
		case *ast.Ident:
			if obj, ok := pass.TypesInfo.Uses[lhs].(*types.Var); ok && obj.Parent() == pass.Pkg.Scope() {
				pass.Reportf(s.Pos(), "*sim context stored into package-level %s: contexts must not outlive their owning node", lhs.Name)
			}
		case *ast.IndexExpr:
			pass.Reportf(s.Pos(), "*sim context stored into a collection element: cross-node context aggregation is the engine's job")
		}
	}
}

// checkCtxGo flags contexts handed to a new goroutine, by argument or by
// capture.
func checkCtxGo(pass *Pass, g *ast.GoStmt) {
	for _, a := range g.Call.Args {
		if pass.exprIsCtx(a) {
			pass.Reportf(a.Pos(), "*sim context passed to a goroutine: context methods are single-goroutine by contract")
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || !isCtxPtr(obj.Type()) || obj.IsField() {
			return true
		}
		// Captured iff declared outside the literal.
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			pass.Reportf(id.Pos(), "*sim context %s captured by a goroutine: context methods are single-goroutine by contract", id.Name)
		}
		return true
	})
}

// checkCtxCollection flags composite literals of ctx-pointer collections
// ([]*StepCtx{...}, map[...]*StepCtx{...}).
func checkCtxCollection(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	var elem types.Type
	switch u := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	case *types.Map:
		elem = u.Elem()
	default:
		return
	}
	if isCtxPtr(elem) && len(lit.Elts) > 0 {
		pass.Reportf(lit.Pos(), "collection of *sim contexts: cross-node context aggregation is the engine's job, not a protocol's")
	}
}
