// Package lint is the project-specific static-analysis framework behind
// cmd/sptrsvlint (DESIGN.md §6.8). It enforces the invariants the solver's
// correctness and speed rest on but the compiler cannot see: hot-path
// functions must not allocate, atomically-accessed fields must be atomic
// everywhere, busy-waits must stay cancellable, kernels must not read the
// wall clock outside designated measurement sites, and the module's
// error-returning APIs must not have their errors dropped.
//
// The framework is stdlib-only (go/ast + go/parser + go/types); packages
// are loaded and type-checked against the export data `go list -export`
// produces, so the analyzers see fully resolved types without any
// dependency on golang.org/x/tools.
//
// Two comment pragmas drive the analyzers:
//
//	//sptrsv:hotpath    on a function declaration marks it part of the
//	                    per-element solve path checked by hotpathalloc
//	                    and the compiler gates (compiler.go), and scopes
//	                    nowallclock to it.
//	//sptrsv:wallclock  marks a function as a designated wall-clock
//	                    measurement site, exempting it from nowallclock.
//
// A finding is suppressed with
//
//	//lint:ignore <analyzer> <reason>
//
// placed at the end of the offending line or on its own line directly
// above it. The reason is mandatory; a bare ignore suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the tool's deterministic
// file:line:col: analyzer: message format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All lists every analyzer the suite ships, in stable order.
var All = []*Analyzer{HotPathAlloc, AtomicMix, SpinGuard, NoWallClock, ErrDrop, GoLifecycle, CtxFlow}

// ByName resolves an analyzer by its name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass is one (analyzer, package) run. Report and Reportf route findings
// through the suppression filter into the shared diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Facts    *Facts

	ignores    map[string]map[int][]string // file -> line -> ignored analyzer names
	diags      *[]Diagnostic
	suppressed *int
}

// Reportf records a finding at pos unless an ignore pragma covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignoredAt(position) {
		*p.suppressed++
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoredAt reports whether an ignore pragma for this pass's analyzer
// covers the position: the pragma suppresses findings on its own line and
// on the line directly below it.
func (p *Pass) ignoredAt(pos token.Position) bool {
	lines, ok := p.ignores[pos.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == p.Analyzer.Name || name == "*" {
				return true
			}
		}
	}
	return false
}

// Facts is the cross-package knowledge the analyzers share: which
// functions carry which pragma, and which import paths are standard
// library. It is collected once over every loaded package, so a hot-path
// function in internal/block may call an annotated helper in
// internal/exec and the analyzer knows it.
type Facts struct {
	// Hotpath and Wallclock map function keys (see FuncKey) to true for
	// functions annotated //sptrsv:hotpath and //sptrsv:wallclock.
	Hotpath   map[string]bool
	Wallclock map[string]bool
	// Std holds the import paths of standard-library packages seen by the
	// loader, so analyzers can separate module APIs from stdlib ones.
	Std map[string]bool
}

// NewFacts returns an empty fact set (harness use).
func NewFacts() *Facts {
	return &Facts{
		Hotpath:   map[string]bool{},
		Wallclock: map[string]bool{},
		Std:       map[string]bool{},
	}
}

const (
	pragmaHotpath   = "//sptrsv:hotpath"
	pragmaWallclock = "//sptrsv:wallclock"
	ignorePrefix    = "//lint:ignore"
)

// CollectFacts scans every loaded package's pragma comments. Std paths
// come from the loader.
func CollectFacts(pkgs []*Package, std map[string]bool) *Facts {
	f := NewFacts()
	for p := range std {
		f.Std[p] = true
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			collectFilePragmas(f, pkg.Path, file)
		}
	}
	return f
}

// collectFilePragmas records the pragma annotations of one file's
// function declarations. A pragma counts when it appears anywhere in the
// declaration's doc comment group.
func collectFilePragmas(f *Facts, pkgPath string, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		key := astFuncKey(pkgPath, fd)
		for _, c := range fd.Doc.List {
			switch pragmaName(c.Text) {
			case pragmaHotpath:
				f.Hotpath[key] = true
			case pragmaWallclock:
				f.Wallclock[key] = true
			}
		}
	}
}

// pragmaName returns the //sptrsv:* pragma a comment line carries, with
// any trailing explanation stripped, or "".
func pragmaName(text string) string {
	text = strings.TrimSpace(text)
	for _, p := range []string{pragmaHotpath, pragmaWallclock} {
		if text == p || strings.HasPrefix(text, p+" ") {
			return p
		}
	}
	return ""
}

// astFuncKey derives the fact key of a declared function:
// pkgpath.Name for functions, pkgpath.Recv.Name for methods. Pointer,
// generic-instantiation and parenthesis decoration on the receiver type
// is stripped.
func astFuncKey(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgPath + "." + fd.Name.Name
	}
	return pkgPath + "." + recvBaseName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvBaseName unwraps a receiver type expression to its base type name.
func recvBaseName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// FuncKey derives the fact key of a resolved function object, matching
// astFuncKey for the same declaration. Instantiated generics map to their
// origin. Functions without a package (builtins) and methods whose
// receiver has no name (interface literals) return "".
func FuncKey(f *types.Func) string {
	f = f.Origin()
	pkg := f.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		return pkg.Path() + "." + f.Name()
	}
	name := namedBaseName(recv.Type())
	if name == "" {
		return ""
	}
	return pkg.Path() + "." + name + "." + f.Name()
}

// namedBaseName resolves a (possibly pointer-wrapped, possibly
// instantiated) type to its defined name, or "".
func namedBaseName(t types.Type) string {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// collectIgnores builds the per-file suppression index of a package:
// //lint:ignore <analyzer>[,analyzer...] <reason> comments. The reason is
// mandatory — an ignore without one is itself reported by every run so it
// cannot silently rot.
func collectIgnores(fset *token.FileSet, files []*ast.File) (map[string]map[int][]string, []Diagnostic) {
	ignores := map[string]map[int][]string{}
	var malformed []Diagnostic
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				names, ok, bad := parseIgnore(c.Text)
				if bad {
					pos := fset.Position(c.Pos())
					malformed = append(malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := ignores[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					ignores[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], names...)
			}
		}
	}
	return ignores, malformed
}

// parseIgnore parses one comment. ok reports a well-formed ignore; bad
// reports a comment that starts like an ignore but lacks the analyzer
// name or the reason.
func parseIgnore(text string) (names []string, ok, bad bool) {
	if !strings.HasPrefix(text, ignorePrefix) {
		return nil, false, false
	}
	rest := text[len(ignorePrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false, false // e.g. //lint:ignoreXYZ, not ours
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, false, true // missing analyzer or reason
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n == "" {
			return nil, false, true
		}
		names = append(names, n)
	}
	return names, true, false
}

// RunAnalyzers runs the given analyzers over every package and returns
// the surviving findings sorted by file, line, column, analyzer. The
// second result counts findings an ignore pragma suppressed.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, int) {
	var diags []Diagnostic
	suppressed := 0
	for _, pkg := range pkgs {
		ignores, malformed := collectIgnores(fset, pkg.Files)
		diags = append(diags, malformed...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				Facts:      facts,
				ignores:    ignores,
				diags:      &diags,
				suppressed: &suppressed,
			}
			a.Run(pass)
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
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, suppressed
}
