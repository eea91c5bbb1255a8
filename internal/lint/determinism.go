package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// KernelPackages are the import paths whose numerical results must be
// bitwise reproducible across runs and worker counts (the contract pinned by
// TestIC0PermutedBitwiseAcrossDispatch and friends). The determinism
// analyzer only runs inside them.
var KernelPackages = []string{
	"repro/internal/sparse",
	"repro/internal/solver",
	"repro/internal/array",
	"repro/internal/fem",
}

// Determinism flags order-dependent computation in kernel packages:
// map-range loops whose bodies accumulate into outer variables, write slice
// elements, append (unless the collected slice is subsequently sorted in the
// same function — the canonical sort-the-keys idiom), send on channels, or
// emit output; plus any non-test use of time.Now or math/rand, whose results
// differ run to run; plus writes whose slot comes from a sync/atomic Add
// (the claim-a-slot-with-a-cursor scatter), where the order entries land in
// — and so the order they are later summed in — depends on goroutine
// scheduling. Floating-point addition is not associative, so even a
// "harmless" map-order accumulation changes low-order bits between runs.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag map-iteration-order-dependent computation and wall-clock/randomness in kernel packages",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	kernel := false
	for _, kp := range KernelPackages {
		if p.Path == kp {
			kernel = true
			break
		}
	}
	if !kernel {
		return
	}
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkAtomicSlots(p, fd.Body)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkNondetSource(p, n)
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						checkMapRange(p, f, n)
					}
				}
			}
			return true
		})
	}
}

// checkNondetSource flags time.Now and any use of math/rand.
func checkNondetSource(p *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch path := pn.Imported().Path(); {
	case path == "time" && sel.Sel.Name == "Now":
		p.Reportf(sel.Pos(), "time.Now in a kernel package: wall-clock input breaks run-to-run reproducibility")
	case path == "math/rand" || path == "math/rand/v2":
		p.Reportf(sel.Pos(), "%s.%s in a kernel package: randomness breaks run-to-run reproducibility", path, sel.Sel.Name)
	}
}

// checkMapRange examines one map-range statement's body for order-dependent
// effects.
func checkMapRange(p *Pass, file *ast.File, rng *ast.RangeStmt) {
	// The loop variables: writes derived from them are order-dependent.
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			} else if obj := p.Info.Uses[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	outer := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := p.Info.Uses[id]
		if obj == nil || loopVars[obj] {
			return nil
		}
		if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
			return nil // declared inside the loop: scoped per iteration
		}
		return obj
	}
	usesLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[p.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				lhs := ast.Unparen(lhs)
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					switch p.Info.TypeOf(idx.X).Underlying().(type) {
					case *types.Slice, *types.Array, *types.Pointer:
						p.Reportf(n.Pos(), "slice element written inside a map range: element order depends on map iteration")
					}
					continue
				}
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					// += and friends accumulate in iteration order. Integer
					// accumulation commutes (like the ++ case below); float
					// and string accumulation does not.
					if obj := outer(lhs); obj != nil && !isIntegerType(obj.Type()) {
						p.Reportf(n.Pos(), "accumulation into %s inside a map range is iteration-order-dependent (FP addition is not associative); iterate sorted keys", obj.Name())
					}
					continue
				}
				if n.Tok == token.ASSIGN && i < len(n.Rhs) {
					if obj := outer(lhs); obj != nil && usesLoopVar(n.Rhs[i]) {
						if isAppendOf(p, n.Rhs[i]) {
							if !sortedLater(p, file, rng, obj) {
								p.Reportf(n.Pos(), "append inside a map range without a later sort of %s: result order depends on map iteration", obj.Name())
							}
							continue
						}
						p.Reportf(n.Pos(), "last-writer assignment to %s inside a map range is iteration-order-dependent", obj.Name())
					}
				}
			}
		case *ast.IncDecStmt:
			if obj := outer(n.X); obj != nil {
				// Integer ++/-- is order-independent; only flag floats.
				if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
					p.Reportf(n.Pos(), "float accumulation into %s inside a map range is iteration-order-dependent", obj.Name())
				}
			}

		case *ast.SendStmt:
			p.Reportf(n.Pos(), "channel send inside a map range delivers in map iteration order")
		case *ast.CallExpr:
			if isOutputCall(p, n) {
				p.Reportf(n.Pos(), "output emitted inside a map range appears in map iteration order; iterate sorted keys")
			}
		}
		return true
	})
}

// isIntegerType reports whether t's underlying type is an integer basic
// type, whose accumulation is order-independent.
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isAppendOf reports whether e is a call to the append builtin.
func isAppendOf(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedLater reports whether, after the range statement, the enclosing file
// sorts the collected slice: a call mentioning obj whose callee lives in
// package sort or slices, or whose name contains "Sort". This whitelists the
// canonical collect-keys-then-sort idiom without letting an unsorted collect
// through.
func sortedLater(p *Pass, file *ast.File, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		mentions := false
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && p.Info.Uses[id] == obj {
					mentions = true
				}
				return !mentions
			})
		}
		if !mentions {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok {
				if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
					if path := pn.Imported().Path(); path == "sort" || path == "slices" {
						found = true
					}
				}
			}
			if strings.Contains(fun.Sel.Name, "Sort") {
				found = true
			}
		case *ast.Ident:
			if strings.Contains(fun.Name, "Sort") {
				found = true
			}
		}
		return !found
	})
	return found
}

// isOutputCall matches fmt output/formatting calls and the print builtins.
func isOutputCall(p *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		b, ok := p.Info.Uses[fun].(*types.Builtin)
		return ok && (b.Name() == "print" || b.Name() == "println")
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pn, ok := p.Info.Uses[id].(*types.PkgName)
		return ok && pn.Imported().Path() == "fmt"
	}
	return false
}

// checkAtomicSlots flags, within one function body, slice or array element
// writes and slice expressions whose index or bounds derive from a
// sync/atomic Add result — directly or through local variables assigned
// from one (flow-insensitive, to a fixpoint). Reading through an
// atomically claimed index, as a chunk dispatcher does, is not flagged:
// only the slot a value is written to makes the layout scheduling-dependent.
func checkAtomicSlots(p *Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)
	derived := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				found = found || tainted[p.Info.Uses[n]]
			case *ast.CallExpr:
				found = found || isAtomicAdd(p, n)
			}
			return !found
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj != nil && !tainted[obj] && derived(as.Rhs[i]) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	report := func(pos token.Pos) {
		p.Reportf(pos, "write slot derived from a sync/atomic Add: entry order depends on goroutine scheduling; give each goroutine whole rows instead")
	}
	written := func(e ast.Expr) {
		if idx, ok := ast.Unparen(e).(*ast.IndexExpr); ok && derived(idx.Index) {
			switch p.Info.TypeOf(idx.X).Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
				report(idx.Pos())
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				written(lhs)
			}
		case *ast.IncDecStmt:
			written(n.X)
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{n.Low, n.High, n.Max} {
				if b != nil && derived(b) {
					report(n.Pos())
					break
				}
			}
		}
		return true
	})
}

// isAtomicAdd matches sync/atomic's Add functions (AddInt32, AddUint64, …)
// and the Add methods of its typed integers (atomic.Int32.Add, …).
func isAtomicAdd(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Add") {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path() == "sync/atomic"
		}
	}
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		pkg := s.Obj().Pkg()
		return pkg != nil && pkg.Path() == "sync/atomic"
	}
	return false
}
