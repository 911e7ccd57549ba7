package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoLifecycle enforces the daemon's drain-on-shutdown guarantee as a
// checked invariant (DESIGN.md §6.10/§6.13): every `go` statement in the
// concurrency-bearing packages (internal/daemon, internal/exec) must be
// tied to a tracked lifecycle so no goroutine can outlive the structure
// that launched it. A launch is tracked when
//
//   - a sync.WaitGroup Add call lexically dominates it in the same
//     function (the launcher registered the goroutine before starting it),
//     or
//   - the goroutine's body participates in its own shutdown protocol: it
//     calls Done on a WaitGroup, ranges over a channel (a bounded worker
//     draining a closed queue), or blocks on a channel receive it can be
//     released from, or
//   - an explicit //lint:ignore golifecycle <reason> documents why
//     termination is guaranteed another way (e.g. the spin-pool's
//     epoch-broadcast protocol).
//
// The body check resolves same-package named callees to their
// declarations, so `go d.worker(p)` is analyzed through worker's body.
var GoLifecycle = &Analyzer{
	Name: "golifecycle",
	Doc:  "require every go statement in the daemon/exec packages to have a tracked lifecycle",
	Run:  runGoLifecycle,
}

// goLifecyclePkgs are the package-path fragments in scope: the packages
// whose goroutines the daemon's drain guarantee depends on.
var goLifecyclePkgs = []string{"internal/daemon", "internal/exec"}

func inGoLifecycleScope(path string) bool {
	for _, frag := range goLifecyclePkgs {
		if strings.Contains(path, frag) {
			return true
		}
	}
	return false
}

func runGoLifecycle(pass *Pass) {
	if !inGoLifecycleScope(pass.Pkg.Path()) {
		return
	}
	decls := packageFuncDecls(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !goTracked(pass, fd, gs, decls) {
					pass.Reportf(gs.Pos(), "goroutine has no tracked lifecycle: no WaitGroup.Add dominates the launch and the body neither calls Done, ranges over a channel, nor blocks on a receive")
				}
				return true
			})
		}
	}
}

// packageFuncDecls maps the package's function objects to their
// declarations so goroutine bodies behind named calls can be inspected.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if f, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[f] = fd
				}
			}
		}
	}
	return decls
}

// goTracked reports whether one go statement satisfies a lifecycle tie.
func goTracked(pass *Pass, fd *ast.FuncDecl, gs *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) bool {
	if wgAddDominates(pass, fd, gs) {
		return true
	}
	body := goroutineBody(pass, gs, decls)
	return body != nil && bodySelfTracked(pass, body)
}

// wgAddDominates reports a sync.WaitGroup Add call lexically before the
// go statement in the same enclosing declaration — the register-then-
// launch shape AddMatrix and the pool constructors use.
func wgAddDominates(pass *Pass, fd *ast.FuncDecl, gs *ast.GoStmt) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= gs.Pos() {
			return !found
		}
		if isWaitGroupMethod(pass.Info, call, "Add") {
			found = true
		}
		return !found
	})
	return found
}

// goroutineBody resolves the launched function's body: a literal, or a
// same-package named function/method declaration.
func goroutineBody(pass *Pass, gs *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		return lit.Body
	}
	callee := calleeFunc(pass.Info, gs.Call)
	if callee == nil {
		return nil
	}
	if fd := decls[callee.Origin()]; fd != nil {
		return fd.Body
	}
	return nil
}

// bodySelfTracked reports whether a goroutine body participates in its
// own shutdown protocol: WaitGroup.Done, a channel-range drain loop, or a
// blocking channel receive.
func bodySelfTracked(pass *Pass, body *ast.BlockStmt) bool {
	tracked := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupMethod(pass.Info, t, "Done") {
				tracked = true
			}
		case *ast.RangeStmt:
			if isChanType(pass.Info.TypeOf(t.X)) {
				tracked = true
			}
		case *ast.UnaryExpr:
			if t.Op.String() == "<-" {
				tracked = true
			}
		}
		return !tracked
	})
	return tracked
}

// isWaitGroupMethod reports whether call invokes sync.WaitGroup's named
// method (directly or through an embedded/pointer field).
func isWaitGroupMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if named, ok := types.Unalias(derefType(recv)).(*types.Named); ok {
		obj := named.Obj()
		return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
	}
	return false
}

func derefType(t types.Type) types.Type {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Chan)
	return ok
}
