package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// auditSample exercises every diagnostic form the Go 1.24 compiler emits
// under -m=2 -d=ssa/check_bce: bounds checks (repeated per
// instantiation), verdicts with and without costs, generic shape names,
// pointer receivers, both escape spellings (with the compiler's duplicate
// colon-suffixed flow header), a package-qualified capture from an
// importing package's instantiation, indented flow explanations, package
// banners, autogenerated wrappers and root-package "./" paths.
const auditSample = `# example.com/hot
hot/a.go:5:5: Found IsInBounds
hot/a.go:5:5: Found IsInBounds
hot/a.go:6:14: Found IsSliceInBounds
./main.go:3:4: Found IsInBounds
hot/a.go:10:6: can inline Fast with cost 42 as: func(int) int { return x + 1 }
hot/a.go:20:6: cannot inline Slow: function too complex: cost 95 exceeds budget 80
hot/a.go:30:6: can inline AtomicAddFloat[go.shape.float64] with cost 78 as: func(*go.shape.float64, go.shape.float64) { ... }
hot/a.go:30:6: cannot inline AtomicAddFloat[float32]: function too complex: cost 84 exceeds budget 80
hot/a.go:40:7: cannot inline (*Pool).publish: unhandled op DEFER
hot/a.go:50:2: moved to heap: next
hot/a.go:50:2: moved to heap: hot.next
hot/a.go:50:2: hot.next escapes to heap:
hot/a.go:52:10: &Guard{} escapes to heap:
  flow: {heap} = &{storage for &Guard{}}:
    from &Guard{} (spill) at hot/a.go:52:10
hot/a.go:52:10: &Guard{} escapes to heap
hot/a.go:53:3: e.Row escapes to heap
hot/a.go:60:9: func literal escapes to heap:
hot/a.go:60:9: func literal escapes to heap
<autogenerated>:1: cannot inline (*Pool).Workers: unhandled op DEFER
hot/a.go:70:14: make([]go.shape.float64, k) escapes to heap
`

func TestParseAudit(t *testing.T) {
	a, err := parseAudit(auditSample)
	if err != nil {
		t.Fatalf("parseAudit: %v", err)
	}
	wantBCE := []BCESite{
		{File: "hot/a.go", Line: 5, Col: 5, Kind: "IsInBounds"},
		{File: "hot/a.go", Line: 6, Col: 14, Kind: "IsSliceInBounds"},
		{File: "main.go", Line: 3, Col: 4, Kind: "IsInBounds"},
	}
	if !slices.Equal(a.BCE, wantBCE) {
		t.Errorf("BCE = %+v, want %+v (repeats fold, ./ stripped)", a.BCE, wantBCE)
	}

	if got, want := len(a.Verdicts), 5; got != want {
		t.Fatalf("verdicts = %d, want %d: %+v", got, want, a.Verdicts)
	}
	byName := map[string]inlVerdict{}
	for _, v := range a.Verdicts {
		byName[v.Name] = v
	}
	if v := byName["Slow"]; v.CanInline || v.Reason != "function too complex: cost 95 exceeds budget 80" {
		t.Errorf("Slow verdict = %+v, want verbatim cannot-inline reason", v)
	}
	if v := byName["Fast"]; !v.CanInline || v.Line != 10 {
		t.Errorf("Fast verdict = %+v", v)
	}
	if v := byName["AtomicAddFloat[float32]"]; v.CanInline {
		t.Errorf("concrete instantiation should keep its cannot verdict: %+v", v)
	}
	if _, ok := byName["(*Pool).Workers"]; ok {
		t.Errorf("autogenerated wrapper diagnostics must be dropped")
	}

	var whats []string
	for _, s := range a.Escapes {
		whats = append(whats, s.What)
	}
	want := []string{"next", "next", "&Guard{}", "e.Row", "func literal", "make([]T, k)"}
	if !slices.Equal(whats, want) {
		t.Errorf("escapes = %q, want %q (qualified captures and shapes fold, selectors stay)", whats, want)
	}
	if !a.Escapes[0].Moved || a.Escapes[1].Moved {
		t.Errorf("escapes = %+v, want moved then escaping next", a.Escapes[:2])
	}
}

func TestParseAuditNoBoundsChecks(t *testing.T) {
	a, err := parseAudit("# example.com/hot\nhot/a.go:10:6: can inline Fast with cost 4 as: func() {}\n")
	if err != nil {
		t.Fatalf("a package without surviving bounds checks must parse: %v", err)
	}
	if len(a.BCE) != 0 || len(a.Verdicts) != 1 {
		t.Errorf("audit = %+v, want one verdict and no checks", a)
	}
}

func TestNormalizeInlName(t *testing.T) {
	cases := map[string]string{
		"SpinUntilZero":                          "SpinUntilZero",
		"(*SpinPool).publish":                    "SpinPool.publish",
		"AtomicAddFloat[go.shape.float64]":       "AtomicAddFloat",
		"sparse.(*CSC[go.shape.float32]).ToCSR":  "sparse.CSC.ToCSR",
		"TriSyncFreeSolve[go.shape.float64].fn1": "TriSyncFreeSolve.fn1",
	}
	for in, want := range cases {
		if got := normalizeInlName(in); got != want {
			t.Errorf("normalizeInlName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsClosureName(t *testing.T) {
	for name, want := range map[string]bool{
		"TriSyncFreeSolve.func1":   true,
		"SpinPool.worker.gowrap2":  true,
		"Run.deferwrap1":           true,
		"solveBatch":               false,
		"kernels.TriSerialSolve":   false,
		"ParallelFor.func2.func10": true,
	} {
		if got := isClosureName(name); got != want {
			t.Errorf("isClosureName(%q) = %v, want %v", name, got, want)
		}
	}
}

// loadTmpSources writes source files into a temp dir and parses them as
// the audit would, keyed by their names.
func loadTmpSources(t *testing.T, files map[string]string) map[string]*hotSource {
	t.Helper()
	dir := t.TempDir()
	srcs := map[string]*hotSource{}
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		hs, err := parseHotSource(p, name)
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = hs
	}
	return srcs
}

const attributeSrc = `package hot

import "sync/atomic"

type launcher struct{}

func (launcher) Run(f func(int)) { f(0) }

//sptrsv:hotpath
func Hot(p launcher, xs []float64) {
	var next atomic.Int64
	p.Run(func(w int) {
		_ = next.Add(1)
		_ = xs[w]
	})
	if len(xs) == 0 {
		panic("empty input slice for Hot")
	}
	//lint:ignore escapecheck per-solve scratch, reviewed
	big := make([]float64, len(xs))
	_ = big
	bad := make([]float64, 4)
	_ = bad
}

func cold() *int {
	v := 3
	return &v
}

type T struct{}

//sptrsv:hotpath
func (t *T) M(s []int) int { return s[2] }
`

// TestAttribute pins the one matching step: every kind of diagnostic
// goes to the hot function whose span holds it (closures to their
// declaration), and diagnostics outside hot functions are dropped.
func TestAttribute(t *testing.T) {
	srcs := loadTmpSources(t, map[string]string{"a.go": attributeSrc})
	audit := &compilerOutput{
		BCE: []BCESite{
			{File: "a.go", Line: 14, Col: 9, Kind: "IsInBounds"},  // closure inside Hot
			{File: "a.go", Line: 27, Col: 9, Kind: "IsInBounds"},  // cold: not hot
			{File: "a.go", Line: 34, Col: 38, Kind: "IsInBounds"}, // method M
			{File: "b.go", Line: 1, Col: 1, Kind: "IsInBounds"},   // file with no hot functions
		},
		Verdicts: []inlVerdict{
			// Shape conflict: any cannot wins over a shape that inlines.
			{File: "a.go", Line: 10, Name: "Hot[go.shape.float64]", CanInline: true},
			{File: "a.go", Line: 10, Name: "Hot[float32]", Reason: "function too complex: cost 84 exceeds budget 80"},
			// A closure verdict inside the span is not the function's.
			{File: "a.go", Line: 12, Name: "Hot.func1", Reason: "unhandled op DEFER"},
			{File: "a.go", Line: 34, Name: "(*T).M", CanInline: true},
		},
		Escapes: []EscapeSite{
			{File: "a.go", Line: 10, Col: 6, What: "func literal"},                // decl-position dictionary wrapper
			{File: "a.go", Line: 12, Col: 8, What: "func literal"},                // launch body at a call-arg position
			{File: "a.go", Line: 11, Col: 6, What: "next", Moved: true},           // closure-published local
			{File: "a.go", Line: 17, Col: 9, What: `"empty input slice for Hot"`}, // panic arg: cold
			{File: "a.go", Line: 20, Col: 13, What: "make([]float64, len(xs))"},   // ignored line
			{File: "a.go", Line: 22, Col: 13, What: "make([]float64, 4)"},         // violation
			{File: "a.go", Line: 27, Col: 2, What: "v", Moved: true},              // not hot: out of scope
		},
	}
	funcs := attribute(srcs, audit)
	if len(funcs) != 2 || funcs[0].Key() != "a.go:Hot" || funcs[1].Key() != "a.go:T.M" {
		t.Fatalf("funcs = %+v, want a.go:Hot and a.go:T.M", funcs)
	}
	hot, m := funcs[0], funcs[1]
	if len(hot.BCE) != 1 || hot.BCE[0].Line != 14 || len(m.BCE) != 1 {
		t.Errorf("BCE: Hot %+v, M %+v; want the closure check on Hot and one check on M", hot.BCE, m.BCE)
	}
	if hot.Verdicts != 2 || hot.Inlines() || !slices.Equal(hot.Reasons, []string{"function too complex: cost 84 exceeds budget 80"}) {
		t.Errorf("Hot inlining = %d verdicts %q, want the concrete instantiation's reason only", hot.Verdicts, hot.Reasons)
	}
	if !m.Inlines() {
		t.Errorf("M = %+v, want inlining", m)
	}
	if hot.Sanctioned != 4 || hot.Suppressed != 1 {
		t.Errorf("Hot escapes: %d sanctioned %d suppressed, want 4 (decl, arg-lit, capture, panic) and 1", hot.Sanctioned, hot.Suppressed)
	}
	if len(hot.Escapes) != 1 || hot.Escapes[0].Line != 22 {
		t.Fatalf("Hot violations = %+v, want the bare make only", hot.Escapes)
	}
	res := CheckEscapes(funcs)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "a.go:22:13: escapes to heap in hot-path function Hot: make([]float64, 4)") {
		t.Errorf("CheckEscapes = %+v, want the one violation", res)
	}
}

// TestHotFuncWithoutVerdictFailsInl pins that the inlining gate starts
// from the annotated functions: a hot function in a file the compiler
// reported nothing for — a generic nothing instantiates — fails the gate,
// and regenerating the allowlist cannot paper over it.
func TestHotFuncWithoutVerdictFailsInl(t *testing.T) {
	srcs := loadTmpSources(t, map[string]string{
		"a.go": "package hot\n\n//sptrsv:hotpath\nfunc Fast(x int) int { return x + 1 }\n",
		"b.go": "package hot\n\n//sptrsv:hotpath\nfunc Orphan[T float32 | float64](x T) T { return x * 2 }\n",
	})
	funcs := attribute(srcs, &compilerOutput{Verdicts: []inlVerdict{{File: "a.go", Line: 4, Name: "Fast", CanInline: true}}})
	res := CheckInl(funcs, []InlAllow{{File: "b.go", Func: "Orphan", Reason: "function too complex"}})
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "b.go:Orphan") ||
		!strings.Contains(res.Violations[0], "never compiled") {
		t.Errorf("violations = %q, want b.go:Orphan reported as never compiled", res.Violations)
	}
	if text := FormatInlAllow(funcs); strings.Contains(text, "Orphan") {
		t.Errorf("FormatInlAllow allowlisted a function without a verdict:\n%s", text)
	}
}

func TestParseBCEAllow(t *testing.T) {
	in := `
# comment
internal/kernels/sptrsv.go:TriSerialSolve 13  # lines 111,112
internal/sparse/permute.go:PermuteVecInto 7
`
	allow, err := ParseBCEAllow(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) != 2 {
		t.Fatalf("got %d entries, want 2", len(allow))
	}
	want := BCEAllow{File: "internal/kernels/sptrsv.go", Func: "TriSerialSolve", Max: 13}
	if allow[0] != want {
		t.Errorf("got %+v want %+v", allow[0], want)
	}
	for _, bad := range []string{
		"justonefield\n",
		"file.go:Func notanumber\n",
		"file.go:Func -1\n",
		"missingcolon 3\n",
	} {
		if _, err := ParseBCEAllow(strings.NewReader(bad)); err == nil {
			t.Errorf("want parse error for %q", bad)
		}
	}
}

func TestCheckBCE(t *testing.T) {
	funcs := []HotFunc{
		{File: "a.go", Func: "Hot", BCE: make([]BCESite, 3)},
		{File: "a.go", Func: "Clean"},
		{File: "b.go", Func: "Tight", BCE: make([]BCESite, 1)},
		{File: "b.go", Func: "New", BCE: make([]BCESite, 2)},
	}
	allow := []BCEAllow{
		{File: "a.go", Func: "Hot", Max: 3},
		{File: "b.go", Func: "Tight", Max: 4},
		{File: "c.go", Func: "Gone", Max: 2},
	}
	res := CheckBCE(funcs, allow)
	// New is unlisted and Gone names no audited function -> violations;
	// Clean has nothing to budget.
	if v := strings.Join(res.Violations, "\n"); len(res.Violations) != 2 ||
		!strings.Contains(v, "b.go:New") || !strings.Contains(v, "c.go:Gone") {
		t.Errorf("violations = %v, want one for b.go:New and one for c.go:Gone", res.Violations)
	}
	// Tight under budget -> one stale note.
	if len(res.Stale) != 1 || !strings.Contains(res.Stale[0], "b.go:Tight") {
		t.Errorf("stale = %v, want one note for b.go:Tight", res.Stale)
	}

	// Exceeding the budget is a violation.
	funcs[0].BCE = make([]BCESite, 5)
	res = CheckBCE(funcs, allow)
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "a.go:Hot") && strings.Contains(v, "permits 3") {
			found = true
		}
	}
	if !found {
		t.Errorf("want over-budget violation for a.go:Hot, got %v", res.Violations)
	}
}

func TestBCEAllowRoundTrip(t *testing.T) {
	funcs := []HotFunc{
		{File: "a.go", Func: "Clean"},
		{File: "a.go", Func: "Hot", BCE: []BCESite{{Line: 7}, {Line: 7}, {Line: 9}}},
	}
	text := FormatBCEAllow(funcs)
	allow, err := ParseBCEAllow(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseBCEAllow(FormatBCEAllow): %v", err)
	}
	if want := (BCEAllow{File: "a.go", Func: "Hot", Max: 3}); len(allow) != 1 || allow[0] != want {
		t.Fatalf("allow = %+v, want only %+v", allow, want)
	}
	if !strings.Contains(text, "a.go:Hot 3  # lines 7,9\n") {
		t.Errorf("entry does not list the check lines once each:\n%s", text)
	}
	if res := CheckBCE(funcs, allow); len(res.Violations)+len(res.Stale) != 0 {
		t.Errorf("regenerated allowlist does not gate its own audit cleanly: %+v", res)
	}
}

func TestInlAllowRoundTrip(t *testing.T) {
	funcs := []HotFunc{
		{File: "a.go", Func: "Inlines", Verdicts: 1},
		{File: "a.go", Func: "Slow", Verdicts: 1, Reasons: []string{"function too complex: cost 95 exceeds budget 80"}},
		{File: "b.go", Func: "Pool.Run", Verdicts: 1, Reasons: []string{"unhandled op DEFER"}},
	}
	text := FormatInlAllow(funcs)
	allow, err := ParseInlAllow(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseInlAllow(FormatInlAllow): %v", err)
	}
	if len(allow) != 2 {
		t.Fatalf("allow = %+v, want the two non-inlinable entries", allow)
	}
	if allow[0].Func != "Slow" || allow[0].Reason != "function too complex: cost 95 exceeds budget 80" {
		t.Errorf("entry = %+v, want verbatim reason", allow[0])
	}
	if allow[1].File != "b.go" || allow[1].Func != "Pool.Run" {
		t.Errorf("entry = %+v", allow[1])
	}
	// Regeneration from the same audit is byte-identical.
	if again := FormatInlAllow(funcs); again != text {
		t.Errorf("FormatInlAllow is not deterministic")
	}
}

func TestParseInlAllowMalformed(t *testing.T) {
	for _, bad := range []string{
		"a.go:F\n",           // no reason
		"a.goF\treason\n",    // no colon in key
		"a.go:\treason\n",    // empty func
		":F\treason\n",       // empty file
		"a.go:F reason...\n", // space, not tab
	} {
		if _, err := ParseInlAllow(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseInlAllow(%q) accepted a malformed line", bad)
		}
	}
}

func TestCheckInl(t *testing.T) {
	funcs := []HotFunc{
		{File: "a.go", Func: "Fine", Verdicts: 1},
		{File: "a.go", Func: "Listed", Verdicts: 1, Reasons: []string{"unhandled op DEFER"}},
		{File: "a.go", Func: "Drifted", Verdicts: 1, Reasons: []string{"function too complex: cost 99 exceeds budget 80"}},
		{File: "a.go", Func: "New", Verdicts: 1, Reasons: []string{"call to recover"}},
		{File: "a.go", Func: "Recovered", Verdicts: 2},
	}
	allow := []InlAllow{
		{File: "a.go", Func: "Listed", Reason: "unhandled op DEFER"},
		{File: "a.go", Func: "Drifted", Reason: "function too complex: cost 90 exceeds budget 80"},
		{File: "a.go", Func: "Recovered", Reason: "call to recover"},
		{File: "a.go", Func: "Gone", Reason: "unhandled op DEFER"},
	}
	res := CheckInl(funcs, allow)
	if len(res.Violations) != 2 || !strings.Contains(res.Violations[0], "New") ||
		!strings.Contains(res.Violations[0], "call to recover") ||
		!strings.Contains(res.Violations[1], "a.go:Gone") {
		t.Errorf("violations = %v, want the unlisted New with its verbatim reason, then the entry for the gone Gone", res.Violations)
	}
	stale := strings.Join(res.Stale, "\n")
	for _, needle := range []string{"Drifted", "Recovered"} {
		if !strings.Contains(stale, needle) {
			t.Errorf("stale notes missing %s:\n%s", needle, stale)
		}
	}
	for _, needle := range []string{"Listed", "Gone"} {
		if strings.Contains(stale, needle) {
			t.Errorf("%s flagged stale:\n%s", needle, stale)
		}
	}
}

// TestAuditedPackagesMatchAnnotations pins the audit's package set to
// the annotations: it must be exactly the packages that declare a
// //sptrsv:hotpath function in a non-test file, found here by walking
// the module's sources instead of asking the go command.
func TestAuditedPackagesMatchAnnotations(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(p, "go.mod"))
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || nested == nil) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && isHotpathDecl(fd) {
				rel, _ := filepath.Rel(root, filepath.Dir(p))
				if pkg := "./" + filepath.ToSlash(rel); !slices.Contains(want, pkg) {
					want = append(want, pkg)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(want)
	_, got, err := loadHotSources(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("audited packages = %v, want the annotated ones %v", got, want)
	}
}

// TestCompilerAuditRepo runs the real audit over the module and gates it
// against the committed allowlists — the check `make compilercheck`
// wires into CI — so a kernel edit that regresses a provable shape,
// stops inlining or adds a heap escape fails here first.
func TestCompilerAuditRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the hot packages; skipped in -short")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	_, funcs, err := CompilerAudit(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	bceAllow, err := LoadBCEAllow(filepath.Join(root, "internal/lint/bce_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	inlAllow, err := LoadInlAllow(filepath.Join(root, "internal/lint/inl_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bceAllow) == 0 || len(inlAllow) == 0 {
		t.Fatal("a committed allowlist is missing or empty")
	}
	for gate, res := range map[string]GateResult{
		"bce": CheckBCE(funcs, bceAllow), "inl": CheckInl(funcs, inlAllow), "escape": CheckEscapes(funcs),
	} {
		for _, v := range res.Violations {
			t.Errorf("%s: %s", gate, v)
		}
	}
}

// TestEscapeGateCoversDroppedRules is the parity proof behind retiring
// hotpathalloc's allocation rules: for each one, a golden case where the
// construct reaches the heap is reported by the escape gate. The shapes
// those rules sanctioned (launch bodies) or flagged falsely (literals
// that stay on the stack) stay clean.
func TestEscapeGateCoversDroppedRules(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the golden package; skipped in -short")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	_, funcs, err := CompilerAudit(root, []string{"./internal/lint/testdata/hotpathalloc"})
	if err != nil {
		t.Fatal(err)
	}
	byFunc := map[string]HotFunc{}
	for _, f := range funcs {
		byFunc[f.Func] = f
	}
	for _, c := range []struct{ rule, fn, what string }{
		{"slice composite literal", "escSliceLit", "[]int{...}"},
		{"map composite literal", "escMapLit", "map[string]int{...}"},
		{"&composite literal", "escAddrLit", "&point{...}"},
		{"make", "kernelMake", "make([]float64, n)"},
		{"new", "escNew", "new(point)"},
		{"closure capture", "kernelClosure", "func literal"},
		{"closure passed to a non-launch call", "escClosureArg", "func literal"},
		{"variable captured outside a launch body", "escClosureArg", "n"},
		{"boxing: return", "kernelBox", "v"},
		{"boxing: call argument", "escBoxArg", "v"},
		{"boxing: assignment", "escBoxAssign", "v"},
		{"boxing: var spec", "escBoxVar", "v"},
		{"boxing in a generic body", "boxesInGeneric", "n"},
	} {
		f := byFunc[c.fn]
		if !slices.ContainsFunc(f.Escapes, func(e EscapeSite) bool { return e.What == c.what }) {
			t.Errorf("%s: escape gate does not report %q in %s (escapes %+v)", c.rule, c.what, c.fn, f.Escapes)
		}
	}
	for _, fn := range []string{"launchBody", "kernelLiterals", "kernelOK"} {
		if f, ok := byFunc[fn]; !ok || len(f.Escapes) > 0 {
			t.Errorf("%s: want a clean hot function, got %+v", fn, f)
		}
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
