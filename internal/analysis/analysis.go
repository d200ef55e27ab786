// Package analysis is the repo's static-analysis suite: five analyzers
// that turn the determinism and zero-alloc contracts — today enforced only
// at runtime by the difftest/fuzz/golden/alloc gates — into build-time
// rejections. It is a stdlib-only miniature of golang.org/x/tools/go/analysis
// (the container has no module proxy, so x/tools cannot be vendored): the
// Analyzer/Pass/Diagnostic shapes mirror that API so the suite can be
// rebased onto the real framework if the dependency ever lands.
//
// The analyzers:
//
//	maporder  — unordered `for range` over maps in any package, unless the
//	            body is a recognized commutative idiom or the loop carries
//	            //mmlint:commutative <reason>.
//	detsource — nondeterminism sources (time.Now feeding logic, global
//	            math/rand, GOMAXPROCS/NumCPU/env branching) in the
//	            transcript-affecting packages; //mmlint:nondet <reason>
//	            suppresses a deliberate perf-only use.
//	noalloc   — functions annotated //mmlint:noalloc are rejected for
//	            escaping closures, interface boxing, fmt.*, map/slice
//	            literals, make/new, goroutine launches, and append forms
//	            that grow fresh slices.
//	ctxescape — *sim.StepCtx / *sim.Ctx / sim.Node values escaping their
//	            owning node: globals, channel sends, goroutine captures,
//	            pointer collections, and post-construction field aliasing.
//	atomicmix — struct fields accessed both through sync/atomic pointer
//	            calls and by plain loads/stores.
//
// Annotation grammar (line comment on the flagged line or the line above;
// reasons are mandatory):
//
//	//mmlint:commutative <reason>
//	//mmlint:nondet <reason>
//	//mmlint:noalloc            (on a function's doc comment; marks the contract)
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, run independently over each package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Sizes     types.Sizes

	report func(Diagnostic)

	directives map[int][]directive // per-file-line annotations, built lazily
	dirFset    bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //mmlint:<verb> <reason> comment.
type directive struct {
	verb   string
	reason string
}

// buildDirectives indexes every //mmlint: comment by file and line. A
// directive written on its own line annotates the next line, matching the
// //go: and //nolint conventions; a trailing directive annotates its own
// line.
func (p *Pass) buildDirectives() {
	if p.directives != nil {
		return
	}
	p.directives = make(map[int][]directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//mmlint:")
				if !ok {
					continue
				}
				verb, reason, _ := strings.Cut(text, " ")
				pos := p.Fset.Position(c.Pos())
				d := directive{verb: verb, reason: strings.TrimSpace(reason)}
				// Key directives by the base offset of the file plus line so
				// lines of different files never collide.
				base := p.Fset.File(c.Pos()).Base()
				p.directives[base<<24|pos.Line] = append(p.directives[base<<24|pos.Line], d)
			}
		}
	}
}

// directiveAt returns the first //mmlint:<verb> directive annotating pos:
// on the same line, or on the line immediately above.
func (p *Pass) directiveAt(pos token.Pos, verb string) (directive, bool) {
	p.buildDirectives()
	tf := p.Fset.File(pos)
	if tf == nil {
		return directive{}, false
	}
	line := p.Fset.Position(pos).Line
	base := tf.Base()
	for _, l := range [2]int{line, line - 1} {
		for _, d := range p.directives[base<<24|l] {
			if d.verb == verb {
				return d, true
			}
		}
	}
	return directive{}, false
}

// funcDirective reports whether a function declaration's doc comment (or the
// line above its func keyword) carries //mmlint:<verb>.
func funcDirective(fn *ast.FuncDecl, verb string) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if text, ok := strings.CutPrefix(c.Text, "//mmlint:"); ok {
				v, _, _ := strings.Cut(text, " ")
				if v == verb {
					return true
				}
			}
		}
	}
	return false
}

// pkgPathIn reports whether path is pkg itself or a package under it.
func pkgPathIn(path string, roots []string) bool {
	for _, r := range roots {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}

// isPkgFunc reports whether the object used at e resolves to the named
// package-level function of the named package (import-path match).
func isPkgFunc(info *types.Info, e ast.Expr, pkgPath string, names ...string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	if obj.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return len(names) == 0
}

// RunAnalyzers executes every analyzer over every package and returns the
// findings sorted by position — the shared driver of cmd/mmlint and the
// analyzer tests.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Sizes:     pkg.Sizes,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s over %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, DetSource, NoAlloc, CtxEscape, AtomicMix}
}
