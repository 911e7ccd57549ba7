package lint

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// The compiler gates (DESIGN.md §6.9, §6.13): the AST analyzers check
// what the source says; these gates pin what the compiler did with it.
// One build of every package that declares a //sptrsv:hotpath function,
//
//	go build -tags bcecheck -gcflags='-m=2 -d=ssa/check_bce'
//
// yields all three kinds of evidence, and each diagnostic is matched once
// to the annotated function that contains it:
//
//   - BCE: the bounds checks the prove pass could not eliminate — per-window
//     setup and data-dependent scatter/gather targets. Each hot function's
//     count is frozen in bce_allow.txt, so an edit that brings back a
//     check the loop shape used to prove away fails.
//   - inlining: every hot function inlines into its callers, or carries a
//     reviewed inl_allow.txt entry recording the compiler's reason
//     verbatim. One silently de-inlined helper once cost ~35%.
//   - escapes: no heap escape inside a hot function beyond the sanctioned
//     per-launch publication costs (see CheckEscapes). Escape decisions
//     are the compiler's: interface boxing through generics, or a capture
//     the backend cannot prove stack-safe, only show up here.
//
// Generic bodies are compiled only where instantiated, so the bcecheck
// build tag adds the bce_force.go files that reference every generic hot
// function at both element types. A hot function the compiler gave no
// inlining verdict was never compiled, and fails the inlining gate.

// auditGCFlags make one build report both the surviving bounds checks
// and the inlining and escape decisions.
const auditGCFlags = "-gcflags=-m=2 -d=ssa/check_bce"

// BCESite is one bounds check the compiler could not eliminate.
type BCESite struct {
	File      string // path as reported by the compiler, relative to the module root
	Line, Col int
	Kind      string // "IsInBounds" or "IsSliceInBounds"
}

// inlVerdict is one inlining decision the compiler reported.
type inlVerdict struct {
	File      string
	Line, Col int
	Name      string // compiler's name, e.g. (*SpinPool).publish, AtomicAddFloat[go.shape.float64]
	CanInline bool
	Reason    string // verbatim cannot-inline reason; "" when CanInline
}

// EscapeSite is one value the compiler moved or escaped to the heap.
type EscapeSite struct {
	File      string
	Line, Col int
	What      string // the escaping expression, e.g. "&Guard{}", "func literal", "next"
	Moved     bool   // true for "moved to heap:" (a captured local), false for "escapes to heap"
}

// compilerOutput is the parsed output of one audit build, each diagnostic once.
type compilerOutput struct {
	BCE      []BCESite
	Verdicts []inlVerdict
	Escapes  []EscapeSite
}

var (
	diagRE      = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)
	bceRE       = regexp.MustCompile(`^Found (IsInBounds|IsSliceInBounds)$`)
	inlCannotRE = regexp.MustCompile(`^cannot inline (\S+): (.+)$`)
	inlCanRE    = regexp.MustCompile(`^can inline (\S+?)(?: with cost \d+)? as: `)
	escMovedRE  = regexp.MustCompile(`^moved to heap: (\S+)$`)
	escHeapRE   = regexp.MustCompile(`^(.+?) escapes to heap:?$`)
	shapeRE     = regexp.MustCompile(`go\.shape\.[a-z0-9]+`)
)

// parseAudit extracts the bounds checks, inlining verdicts and escapes
// from the audit build's output. Package banners, indented escape-flow
// explanations and diagnostics outside the module (absolute paths,
// <autogenerated> wrappers) are skipped. Repeats fold into one entry: a
// generic function instantiated in several audited packages reports the
// same site once per instantiation, and the compiler prints each escape
// with and without a trailing colon.
func parseAudit(out string) (*compilerOutput, error) {
	a := &compilerOutput{}
	seen := map[any]bool{}
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		d := diagRE.FindStringSubmatch(sc.Text())
		if d == nil || filepath.IsAbs(d[1]) || strings.HasPrefix(d[4], " ") {
			continue
		}
		file := strings.TrimPrefix(filepath.ToSlash(d[1]), "./")
		line, _ := strconv.Atoi(d[2])
		col, _ := strconv.Atoi(d[3])
		if m := bceRE.FindStringSubmatch(d[4]); m != nil {
			addOnce(seen, &a.BCE, BCESite{File: file, Line: line, Col: col, Kind: m[1]})
		} else if m := inlCannotRE.FindStringSubmatch(d[4]); m != nil {
			addOnce(seen, &a.Verdicts, inlVerdict{File: file, Line: line, Col: col, Name: m[1], Reason: m[2]})
		} else if m := inlCanRE.FindStringSubmatch(d[4]); m != nil {
			addOnce(seen, &a.Verdicts, inlVerdict{File: file, Line: line, Col: col, Name: m[1], CanInline: true})
		} else if m := escMovedRE.FindStringSubmatch(d[4]); m != nil {
			addOnce(seen, &a.Escapes, EscapeSite{File: file, Line: line, Col: col, What: normalizeEscape(file, m[1]), Moved: true})
		} else if m := escHeapRE.FindStringSubmatch(d[4]); m != nil {
			addOnce(seen, &a.Escapes, EscapeSite{File: file, Line: line, Col: col, What: normalizeEscape(file, m[1])})
		}
	}
	return a, sc.Err()
}

func addOnce[T comparable](seen map[any]bool, list *[]T, v T) {
	if !seen[v] {
		seen[v] = true
		*list = append(*list, v)
	}
}

// normalizeEscape folds the per-instantiation spellings of one escape
// into a single form: go.shape element types become T, and a variable an
// importing package's instantiation names package-qualified
// ("kernels.next" in a kernels file) loses the qualifier.
func normalizeEscape(file, what string) string {
	what = shapeRE.ReplaceAllString(what, "T")
	if pkg, name, ok := strings.Cut(what, "."); ok && pkg == path.Base(path.Dir(file)) && isIdentName(name) {
		return name
	}
	return what
}

// runCompilerAudit is the one audit build: it compiles the packages with
// auditGCFlags under the bcecheck build tag, in dir (the module root the
// reported paths are relative to), and parses the output. The build
// cache replays compiler diagnostics, so repeated runs are cheap and
// deterministic.
func runCompilerAudit(dir string, pkgs []string) (*compilerOutput, error) {
	cmd := exec.Command("go", append([]string{"build", "-tags", "bcecheck", auditGCFlags}, pkgs...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return parseAudit(string(out))
}

// HotFunc is one //sptrsv:hotpath function with the audit's evidence
// about it.
type HotFunc struct {
	File string // module-relative, as the compiler reports it
	Func string // declaration name: Name, or RecvBase.Name for methods
	Line int    // declaration line
	end  int    // last line of the declaration
	BCE  []BCESite
	// Verdicts counts the compiler's inlining verdicts on the function
	// itself (closures excluded); zero means it was never compiled.
	Verdicts int
	Reasons  []string // unique cannot-inline reasons, sorted
	// Escapes are the heap escapes no carve-out sanctions and no
	// //lint:ignore escapecheck pragma covers.
	Escapes                []EscapeSite
	Sanctioned, Suppressed int
}

// Key is the allowlist lookup key, file:func.
func (f HotFunc) Key() string { return f.File + ":" + f.Func }

// Inlines reports whether every compiled instantiation inlines.
func (f HotFunc) Inlines() bool { return f.Verdicts > 0 && len(f.Reasons) == 0 }

// CompilerAudit runs the compiler gates' evidence pipeline over the
// packages patterns match in dir (default ./...): it finds the packages
// that declare a hot-path function in a non-test file, builds exactly
// those once, and attributes the diagnostics to the annotated functions.
// It returns the audited packages as ./-relative patterns and the hot
// functions sorted by key.
func CompilerAudit(dir string, patterns []string) (pkgs []string, funcs []HotFunc, err error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	srcs, pkgs, err := loadHotSources(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	if len(pkgs) == 0 {
		return nil, nil, fmt.Errorf("no //sptrsv:hotpath functions in %s", strings.Join(patterns, " "))
	}
	audit, err := runCompilerAudit(dir, pkgs)
	if err != nil {
		return nil, nil, err
	}
	return pkgs, attribute(srcs, audit), nil
}

// loadHotSources lists the packages patterns match (with the bcecheck tag,
// as the audit builds them), parses their non-test files, and returns the
// files that declare hot functions, keyed by module-relative path, plus
// the packages those files belong to.
func loadHotSources(dir string, patterns []string) (map[string]*hotSource, []string, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command("go", append([]string{"list", "-tags", "bcecheck",
		"-f", "{{.Dir}}{{range .GoFiles}}\t{{.}}{{end}}"}, patterns...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%v\n%s", err, ee.Stderr)
		}
		return nil, nil, fmt.Errorf("go list %s: %v", strings.Join(patterns, " "), err)
	}
	srcs := map[string]*hotSource{}
	var pkgs []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Split(line, "\t")
		rel, err := filepath.Rel(root, fields[0])
		if err != nil {
			return nil, nil, err
		}
		rel = filepath.ToSlash(rel)
		hot := false
		for _, name := range fields[1:] {
			file := path.Join(rel, name)
			src, err := parseHotSource(filepath.Join(root, filepath.FromSlash(file)), file)
			if err != nil {
				return nil, nil, err
			}
			if len(src.funcs) > 0 {
				srcs[file] = src
				hot = true
			}
		}
		if hot {
			pkgs = append(pkgs, "./"+rel)
		}
	}
	slices.Sort(pkgs)
	return srcs, pkgs, nil
}

type posKey struct{ line, col int }

type lineRange struct{ start, end int }

// hotSource is what the gates need of one source file: its hot functions
// and the structural facts behind the escape carve-outs, from one parse
// without type information.
type hotSource struct {
	funcs        []HotFunc
	launchIdents []map[string]bool // per hot func: idents used inside its launch bodies
	declPos      map[posKey]bool   // FuncDecl `func` keyword and name positions
	launchLitPos map[posKey]bool   // positions of func literals passed to Run/ParallelFor
	cold         []lineRange       // panic args, recover-guarded code
	ignore       map[int]bool      // lines covered by //lint:ignore escapecheck
}

// parseHotSource parses one file (path on disk, file as the compiler
// reports it) and records its hot functions and escape facts.
func parseHotSource(path, file string) (*hotSource, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("compiler audit: parse %s: %v", path, err)
	}
	src := &hotSource{
		declPos:      map[posKey]bool{},
		launchLitPos: map[posKey]bool{},
		ignore:       map[int]bool{},
	}
	at := func(p token.Pos) posKey {
		pos := fset.Position(p)
		return posKey{pos.Line, pos.Column}
	}
	lines := func(n ast.Node) lineRange {
		return lineRange{fset.Position(n.Pos()).Line, fset.Position(n.End()).Line}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			names, ok, _ := parseIgnore(c.Text)
			for _, n := range names {
				if ok && (n == "escapecheck" || n == "*") {
					ln := fset.Position(c.Pos()).Line
					src.ignore[ln], src.ignore[ln+1] = true, true
				}
			}
		}
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !isHotpathDecl(fd) {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			if base := recvBaseName(fd.Recv.List[0].Type); base != "" {
				name = base + "." + name
			}
		}
		span := lines(fd)
		src.funcs = append(src.funcs, HotFunc{File: file, Func: name, Line: span.start, end: span.end})
		// The compiler attributes dictionary-wrapper escapes to the
		// declaration, pointing at either the func keyword or the name.
		src.declPos[at(fd.Pos())], src.declPos[at(fd.Name.Pos())] = true, true
		idents := map[string]bool{}
		ast.Inspect(fd, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(t.Fun).(*ast.Ident); ok && id.Name == "panic" {
					src.cold = append(src.cold, lines(t))
				}
				if !isLaunchCall(t) {
					break
				}
				for _, arg := range t.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						src.launchLitPos[at(lit.Pos())] = true
						ast.Inspect(lit.Body, func(m ast.Node) bool {
							if id, ok := m.(*ast.Ident); ok {
								idents[id.Name] = true
							}
							return true
						})
					}
				}
			case *ast.IfStmt:
				if astContainsRecover(t.Init) || astContainsRecover(t.Cond) {
					src.cold = append(src.cold, lines(t))
				}
			case *ast.DeferStmt:
				if lit, ok := t.Call.Fun.(*ast.FuncLit); ok && astContainsRecover(lit) {
					src.cold = append(src.cold, lines(t))
				}
			}
			return true
		})
		src.launchIdents = append(src.launchIdents, idents)
	}
	return src, nil
}

// isLaunchCall reports whether call invokes a method named Run or
// ParallelFor — a launcher launch, judged by name since the escape gate
// parses without type information.
func isLaunchCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "Run" || sel.Sel.Name == "ParallelFor")
}

// isHotpathDecl reports whether the declaration's doc comment carries
// the //sptrsv:hotpath pragma.
func isHotpathDecl(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if pragmaName(c.Text) == pragmaHotpath {
			return true
		}
	}
	return false
}

// at returns the index of the hot function whose span holds line, or -1.
// Closures belong to the declaration that contains them; diagnostics in
// other functions and in package-level initializers match nothing.
func (s *hotSource) at(line int) int {
	for i := range s.funcs {
		if line >= s.funcs[i].Line && line <= s.funcs[i].end {
			return i
		}
	}
	return -1
}

func (s *hotSource) inCold(line int) bool {
	for _, r := range s.cold {
		if line >= r.start && line <= r.end {
			return true
		}
	}
	return false
}

// attribute matches each diagnostic of the audit once to the hot
// function containing it, and returns every hot function of srcs — with
// or without evidence — sorted by key. It fills srcs' functions in place.
func attribute(srcs map[string]*hotSource, a *compilerOutput) []HotFunc {
	find := func(file string, line int) (*hotSource, int) {
		if src := srcs[file]; src != nil {
			return src, src.at(line)
		}
		return nil, -1
	}
	for _, b := range a.BCE {
		if src, i := find(b.File, b.Line); i >= 0 {
			src.funcs[i].BCE = append(src.funcs[i].BCE, b)
		}
	}
	for _, v := range a.Verdicts {
		src, i := find(v.File, v.Line)
		norm := normalizeInlName(v.Name)
		if i < 0 || isClosureName(norm) || !matchesSpan(norm, src.funcs[i].Func) {
			continue
		}
		f := &src.funcs[i]
		f.Verdicts++
		if !v.CanInline {
			f.Reasons = append(f.Reasons, v.Reason)
		}
	}
	for _, e := range a.Escapes {
		src, i := find(e.File, e.Line)
		if i < 0 {
			continue
		}
		f := &src.funcs[i]
		switch {
		case src.declPos[posKey{e.Line, e.Col}],
			strings.HasPrefix(e.What, "func literal") && src.launchLitPos[posKey{e.Line, e.Col}],
			src.inCold(e.Line),
			(e.Moved || isIdentName(e.What)) && src.launchIdents[i][e.What]:
			f.Sanctioned++
		case src.ignore[e.Line]:
			f.Suppressed++
		default:
			f.Escapes = append(f.Escapes, e)
		}
	}
	var out []HotFunc
	for _, src := range srcs {
		for _, f := range src.funcs {
			slices.Sort(f.Reasons)
			f.Reasons = slices.Compact(f.Reasons)
			slices.SortFunc(f.BCE, func(x, y BCESite) int {
				return cmp.Or(cmp.Compare(x.Line, y.Line), cmp.Compare(x.Col, y.Col))
			})
			slices.SortFunc(f.Escapes, func(x, y EscapeSite) int {
				return cmp.Or(cmp.Compare(x.Line, y.Line), cmp.Compare(x.Col, y.Col))
			})
			out = append(out, f)
		}
	}
	slices.SortFunc(out, func(x, y HotFunc) int { return strings.Compare(x.Key(), y.Key()) })
	return out
}

// normalizeInlName reduces a compiler function name to the declaration
// name a HotFunc carries: generic instantiation suffixes and pointer
// receiver decoration are stripped, package qualifiers are left for the
// suffix match in matchesSpan.
//
//	(*SpinPool).publish            -> SpinPool.publish
//	AtomicAddFloat[go.shape.float64] -> AtomicAddFloat
//	sparse.(*CSC[go.shape.float32]).ToCSR -> sparse.CSC.ToCSR
func normalizeInlName(name string) string {
	var b strings.Builder
	depth := 0
	for _, r := range name {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		default:
			if depth == 0 {
				b.WriteRune(r)
			}
		}
	}
	s := b.String()
	s = strings.ReplaceAll(s, "(*", "")
	s = strings.ReplaceAll(s, ")", "")
	return s
}

// closureNameRE matches the synthesized name segments of closures and
// compiler-generated wrappers, which are never gated: a closure failing
// to inline inside an inlined parent is the normal outcome.
var closureNameRE = regexp.MustCompile(`^(func|gowrap|deferwrap)?\d+$`)

func isClosureName(norm string) bool {
	seg := norm
	if i := strings.LastIndex(norm, "."); i >= 0 {
		seg = norm[i+1:]
	}
	return closureNameRE.MatchString(seg)
}

// matchesSpan reports whether a normalized compiler name refers to the
// declared function name (exact, or package-qualified).
func matchesSpan(norm, name string) bool {
	return norm == name || strings.HasSuffix(norm, "."+name)
}

func isIdentName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || i > 0 && r >= '0' && r <= '9' {
			continue
		}
		return false
	}
	return true
}

// astContainsRecover is the untyped twin of containsRecover: it matches
// the builtin by name, which is what the escape gate can see without a
// type-checked package.
func astContainsRecover(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}

// ---- the BCE gate ----

// BCEAllow is one allowlist entry: the frozen bounds-check budget of a
// hot-path function.
type BCEAllow struct {
	File string
	Func string
	Max  int
}

// ParseBCEAllow reads the allowlist: one `file:func max-sites` entry per
// line, '#' comments and blank lines ignored. A trailing `# reason` on an
// entry line is encouraged and ignored by the parser.
func ParseBCEAllow(r io.Reader) ([]BCEAllow, error) {
	var out []BCEAllow
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("bce_allow line %d: want `file:func max-sites`, got %q", lineNo, sc.Text())
		}
		colon := strings.LastIndex(fields[0], ":")
		if colon <= 0 || colon == len(fields[0])-1 {
			return nil, fmt.Errorf("bce_allow line %d: malformed key %q, want file:func", lineNo, fields[0])
		}
		max, err := strconv.Atoi(fields[1])
		if err != nil || max < 0 {
			return nil, fmt.Errorf("bce_allow line %d: bad max-sites %q", lineNo, fields[1])
		}
		out = append(out, BCEAllow{File: fields[0][:colon], Func: fields[0][colon+1:], Max: max})
	}
	return out, sc.Err()
}

// LoadBCEAllow reads the allowlist file; a missing file is an empty list.
func LoadBCEAllow(path string) ([]BCEAllow, error) { return loadAllow(path, ParseBCEAllow) }

func loadAllow[T any](path string, parse func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// GateResult is one gate's verdict over the audit.
type GateResult struct {
	// Violations fail the gate, among them an allowlist entry naming a
	// function the audit no longer reports: a deleted or renamed function
	// must take its entry with it.
	Violations []string
	// Stale entries are informational: allowlist entries looser than the
	// audit or with a drifted reason — cues to tighten or regenerate with
	// `sptrsvlint -compiler -update`.
	Stale []string
}

// CheckBCE gates each hot function's surviving bounds checks against the
// allowlist.
func CheckBCE(funcs []HotFunc, allow []BCEAllow) GateResult {
	budget := map[string]int{}
	for _, a := range allow {
		budget[a.File+":"+a.Func] = a.Max
	}
	var res GateResult
	for _, f := range funcs {
		key, n := f.Key(), len(f.BCE)
		max, listed := budget[key]
		delete(budget, key)
		switch {
		case n > 0 && !listed:
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s: %d bounds check(s) in hot-path function not in allowlist (lines %s)", key, n, siteLines(f.BCE)))
		case n > max:
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s: %d bounds check(s), allowlist permits %d (lines %s) — a provable shape regressed", key, n, max, siteLines(f.BCE)))
		case n == 0 && listed:
			res.Stale = append(res.Stale,
				fmt.Sprintf("%s: allowlisted but reports no bounds checks — remove", key))
		case n < max:
			res.Stale = append(res.Stale,
				fmt.Sprintf("%s: %d bounds check(s), allowlist permits %d — tighten the allowance", key, n, max))
		}
	}
	for _, a := range allow {
		if key := a.File + ":" + a.Func; hasKey(budget, key) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s: allowlisted but not a hot-path function in the audit — remove", key))
		}
	}
	return res
}

func hasKey[V any](m map[string]V, key string) bool {
	_, ok := m[key]
	return ok
}

func siteLines(sites []BCESite) string {
	var b strings.Builder
	last := -1
	for _, s := range sites {
		if s.Line == last {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s.Line)
		last = s.Line
	}
	return b.String()
}

// FormatBCEAllow renders the audit's hot functions with surviving bounds
// checks as allowlist content.
func FormatBCEAllow(funcs []HotFunc) string {
	var b strings.Builder
	b.WriteString("# BCE allowlist (internal/lint/compiler.go, DESIGN.md §6.9).\n")
	b.WriteString("# One entry per //sptrsv:hotpath function with bounds checks the prove\n")
	b.WriteString("# pass cannot eliminate: per-window setup re-slices and data-dependent\n")
	b.WriteString("# scatter/gather targets. `make compilercheck` fails when a function\n")
	b.WriteString("# exceeds its budget; regenerate with `go run ./cmd/sptrsvlint -compiler\n")
	b.WriteString("# -update` only after reviewing why the count changed.\n")
	for _, f := range funcs {
		if len(f.BCE) > 0 {
			fmt.Fprintf(&b, "%s %d  # lines %s\n", f.Key(), len(f.BCE), siteLines(f.BCE))
		}
	}
	return b.String()
}

// ---- the inlining gate ----

// InlAllow is one committed allowlist entry: a reviewed hot-path function
// the compiler cannot inline, with its stated reason.
type InlAllow struct {
	File, Func, Reason string
}

// ParseInlAllow reads the allowlist: one tab-separated `file:func<TAB>reason`
// entry per line, '#' comment lines and blanks ignored. The reason is the
// compiler's verbatim text, so it is not free-form commentary.
func ParseInlAllow(r io.Reader) ([]InlAllow, error) {
	var out []InlAllow
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		key, reason, ok := strings.Cut(line, "\t")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("inl_allow line %d: want `file:func<TAB>reason`, got %q", lineNo, line)
		}
		colon := strings.LastIndex(key, ":")
		if colon <= 0 || colon == len(key)-1 {
			return nil, fmt.Errorf("inl_allow line %d: malformed key %q, want file:func", lineNo, key)
		}
		out = append(out, InlAllow{File: key[:colon], Func: key[colon+1:], Reason: strings.TrimSpace(reason)})
	}
	return out, sc.Err()
}

// LoadInlAllow reads the allowlist file; a missing file is an empty list.
func LoadInlAllow(path string) ([]InlAllow, error) { return loadAllow(path, ParseInlAllow) }

// CheckInl gates the hot functions' inlining verdicts against the
// allowlist. A function without any verdict was never compiled — an
// uninstantiated generic — and fails whatever the allowlist says.
func CheckInl(funcs []HotFunc, allow []InlAllow) GateResult {
	byKey := map[string]string{}
	for _, a := range allow {
		byKey[a.File+":"+a.Func] = a.Reason
	}
	var res GateResult
	for _, f := range funcs {
		key, reason := f.Key(), strings.Join(f.Reasons, "; ")
		listed, ok := byKey[key]
		delete(byKey, key)
		switch {
		case f.Verdicts == 0:
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s (line %d): no inlining verdict in the compiler output — the function was never compiled; instantiate it in its package's bce_force.go",
					key, f.Line))
		case f.Inlines() && ok:
			res.Stale = append(res.Stale, fmt.Sprintf("%s: inlines again — remove its allowlist entry", key))
		case f.Inlines():
		case !ok:
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s (line %d): cannot inline: %s — fix the shape or add a reviewed entry via `sptrsvlint -compiler -update`",
					key, f.Line, reason))
		case listed != reason:
			res.Stale = append(res.Stale,
				fmt.Sprintf("%s: cannot-inline reason drifted (allowlist %q, compiler %q) — regenerate", key, listed, reason))
		}
	}
	for _, a := range allow {
		if key := a.File + ":" + a.Func; hasKey(byKey, key) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s: allowlisted but no longer a hot-path function in the audit — remove", key))
		}
	}
	return res
}

// FormatInlAllow renders the audit's compiled, non-inlinable hot
// functions as allowlist content, reasons verbatim.
func FormatInlAllow(funcs []HotFunc) string {
	var b strings.Builder
	b.WriteString("# Inlining allowlist (internal/lint/compiler.go, DESIGN.md §6.13).\n")
	b.WriteString("# One tab-separated entry per //sptrsv:hotpath function the compiler\n")
	b.WriteString("# cannot inline, with its stated reason verbatim. Launch-root kernels\n")
	b.WriteString("# and once-per-solve drivers land here by design: they exist to get\n")
	b.WriteString("# their helpers inlined INTO them. A leaf helper appearing here is a\n")
	b.WriteString("# red flag — see the SpinUntilZero fast/slow split for the fix shape.\n")
	b.WriteString("# Regenerate with `go run ./cmd/sptrsvlint -compiler -update` only\n")
	b.WriteString("# after reviewing why the frontier moved.\n")
	for _, f := range funcs {
		if f.Verdicts > 0 && !f.Inlines() {
			fmt.Fprintf(&b, "%s\t%s\n", f.Key(), strings.Join(f.Reasons, "; "))
		}
	}
	return b.String()
}

// ---- the escape gate ----

// CheckEscapes gates the hot functions' heap escapes: every escape is a
// violation unless it is one of the sanctioned per-launch publication
// costs —
//
//   - a function literal passed to a Run or ParallelFor call (the launch
//     body),
//   - a local variable such a launch body captures (the counter/guard
//     state the launch publishes),
//   - panic arguments and recover-guarded blocks (cold by definition),
//   - the declaration position itself (generic dictionary wrappers are
//     reported against it),
//
// or a //lint:ignore escapecheck <reason> pragma covers the line. The
// sanctions and suppressions are applied while attributing the audit
// (HotFunc.Sanctioned, HotFunc.Suppressed).
func CheckEscapes(funcs []HotFunc) GateResult {
	var res GateResult
	for _, f := range funcs {
		for _, e := range f.Escapes {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s:%d:%d: escapes to heap in hot-path function %s: %s", e.File, e.Line, e.Col, f.Func, e.What))
		}
	}
	return res
}
