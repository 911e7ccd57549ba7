package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the part of the zero-allocation contract of
// functions annotated //sptrsv:hotpath that the compiler gate cannot
// witness (the runtime twin is TestObsHandlerZeroAllocSolve). Heap
// escapes — make/new, composite literals, capturing closures, interface
// boxing — are the escape gate's (sptrsvlint -compiler): the compiler
// reports exactly those that reach the heap. What remains here, inside
// an annotated function and its nested function literals:
//
//   - append, which allocates on growth (the compiler reports nothing);
//   - string concatenation and string<->slice conversions, which allocate
//     even when the compiler proves the result does not escape;
//   - go statements: the compiler reports the wrapper closure of one with
//     arguments, but nothing for `go f()`;
//   - calls: a hot-path function may call only other //sptrsv:hotpath
//     functions, launcher launch methods, the faultinject no-op hooks, or
//     the whitelisted allocation-free stdlib packages.
//
// Panic-recovery code (arguments of panic, blocks guarded by recover(),
// deferred closures containing recover) is cold by definition and is
// skipped.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid growth, string building, goroutines and unannotated calls in //sptrsv:hotpath functions",
	Run:  runHotPathAlloc,
}

// hotpathStdWhitelist lists the standard-library packages hot-path code
// may call: their exported functions neither allocate on the paths the
// solver uses nor hide locks the spin machinery cannot tolerate.
var hotpathStdWhitelist = map[string]bool{
	"sync":          true,
	"sync/atomic":   true,
	"runtime":       true,
	"runtime/pprof": true,
	"math":          true,
	"math/bits":     true,
	"sort":          true,
	"time":          true, // clock reads; placement is nowallclock's job
	"unsafe":        true,
}

func runHotPathAlloc(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.Facts.Hotpath[astFuncKey(pass.Pkg.Path(), fd)] {
				continue
			}
			h := &hotWalker{pass: pass, cold: map[ast.Node]bool{}}
			h.markCold(fd)
			h.walk(fd.Body)
		}
	}
}

// hotWalker carries one annotated function's analysis state.
type hotWalker struct {
	pass *Pass
	// cold marks subtrees that only execute while panicking.
	cold map[ast.Node]bool
}

// markCold marks panic arguments and recover-guarded code.
func (h *hotWalker) markCold(fd *ast.FuncDecl) {
	info := h.pass.Info
	ast.Inspect(fd, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(info, t, "panic") {
				for _, arg := range t.Args {
					h.cold[arg] = true
				}
			}
		case *ast.IfStmt:
			if containsRecover(info, t.Init) || containsRecover(info, t.Cond) {
				h.cold[t.Body] = true
				if t.Else != nil {
					h.cold[t.Else] = true
				}
			}
		case *ast.DeferStmt:
			if lit, ok := t.Call.Fun.(*ast.FuncLit); ok && containsRecover(info, lit.Body) {
				h.cold[lit] = true
			}
		}
		return true
	})
}

func (h *hotWalker) walk(body ast.Node) {
	info := h.pass.Info
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || h.cold[n] {
			return false
		}
		switch t := n.(type) {
		case *ast.GoStmt:
			h.pass.Reportf(t.Pos(), "hot path launches a goroutine")
		case *ast.BinaryExpr:
			if t.Op == token.ADD && !isConstExpr(info, t) && isStringType(info.TypeOf(t)) {
				h.pass.Reportf(t.Pos(), "hot path allocates: string concatenation")
			}
		case *ast.CallExpr:
			h.checkCall(t)
		}
		return true
	})
}

// checkCall classifies one call: conversion, builtin, or function call.
func (h *hotWalker) checkCall(call *ast.CallExpr) {
	info := h.pass.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isStringSliceConversion(info, tv.Type, call.Args[0]) {
			h.pass.Reportf(call.Pos(), "hot path allocates: string/slice conversion")
		}
		return
	}
	if b := builtinName(info, call); b != "" {
		if b == "append" {
			h.pass.Reportf(call.Pos(), "hot path calls append, which allocates on growth")
		}
		return
	}
	if callee := calleeFunc(info, call); callee != nil && !h.calleeAllowed(callee) {
		h.pass.Reportf(call.Pos(), "hot path calls %s, which is neither //sptrsv:hotpath nor whitelisted", callee.FullName())
	}
}

// calleeAllowed reports whether a hot-path function may call f: another
// annotated function, a launcher launch method, a faultinject hook, a
// whitelisted stdlib package, or a package-less builtin method (error).
func (h *hotWalker) calleeAllowed(f *types.Func) bool {
	pkg := f.Origin().Pkg()
	if pkg == nil {
		return true
	}
	if h.pass.Facts.Std[pkg.Path()] {
		return hotpathStdWhitelist[pkg.Path()]
	}
	return h.pass.Facts.Hotpath[FuncKey(f)] || isLaunchMethod(f) ||
		strings.HasSuffix(pkg.Path(), "internal/faultinject")
}

// isStringSliceConversion reports whether converting arg to target
// copies between a string and a slice, which allocates.
func isStringSliceConversion(info *types.Info, target types.Type, arg ast.Expr) bool {
	if isConstExpr(info, arg) {
		return false
	}
	_, toSlice := types.Unalias(target).Underlying().(*types.Slice)
	_, fromSlice := types.Unalias(info.TypeOf(arg)).Underlying().(*types.Slice)
	return isStringType(target) && fromSlice || toSlice && isStringType(info.TypeOf(arg))
}

// isLaunchMethod matches the Launcher interface surface by receiver type
// name (Launcher, or a concrete *Pool implementation) and method name.
func isLaunchMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch f.Name() {
	case "Run", "ParallelFor", "Workers", "Sequential":
	default:
		return false
	}
	name := namedBaseName(sig.Recv().Type())
	return name == "Launcher" || strings.HasSuffix(name, "Pool")
}

// calleeFunc resolves the static callee of a call, or nil for dynamic
// calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	return builtinName(info, call) == name
}

// containsRecover reports whether the subtree contains a recover() call.
func containsRecover(info *types.Info, n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && isBuiltinCall(info, call, "recover") {
			found = true
		}
		return !found
	})
	return found
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
