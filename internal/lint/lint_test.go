package lint

import (
	"go/token"
	"path/filepath"
	"testing"
)

// Each golden test runs one analyzer over its testdata package and
// additionally asserts the suppression path fired: every package carries
// at least one deliberately //lint:ignore'd false positive.

func TestHotPathAllocGolden(t *testing.T) {
	if got := RunGolden(t, HotPathAlloc, "hotpathalloc"); got < 1 {
		t.Errorf("suppressed = %d, want >= 1 (testdata carries an ignored false positive)", got)
	}
}

func TestAtomicMixGolden(t *testing.T) {
	if got := RunGolden(t, AtomicMix, "atomicmix"); got < 1 {
		t.Errorf("suppressed = %d, want >= 1 (testdata carries an ignored false positive)", got)
	}
}

func TestSpinGuardGolden(t *testing.T) {
	if got := RunGolden(t, SpinGuard, "spinguard"); got < 1 {
		t.Errorf("suppressed = %d, want >= 1 (testdata carries an ignored false positive)", got)
	}
}

func TestNoWallClockGolden(t *testing.T) {
	got := RunGoldenAs(t, NoWallClock, "nowallclock", "example.com/nowallclock/internal/kernels")
	if got < 1 {
		t.Errorf("suppressed = %d, want >= 1 (testdata carries an ignored false positive)", got)
	}
}

func TestErrDropGolden(t *testing.T) {
	if got := RunGolden(t, ErrDrop, "errdrop"); got < 1 {
		t.Errorf("suppressed = %d, want >= 1 (testdata carries an ignored false positive)", got)
	}
}

func TestGoLifecycleGolden(t *testing.T) {
	got := RunGoldenAs(t, GoLifecycle, "golifecycle", "example.com/golifecycle/internal/daemon")
	if got < 1 {
		t.Errorf("suppressed = %d, want >= 1 (testdata carries an ignored false positive)", got)
	}
}

// TestGoLifecycleOutOfScope pins the package scoping: the same goroutine
// shapes produce nothing outside daemon/exec/plancache import paths.
func TestGoLifecycleOutOfScope(t *testing.T) {
	pkgDir := filepath.Join("testdata", "golifecycle")
	names, err := goFileNames(pkgDir)
	if err != nil {
		t.Fatalf("reading %s: %v", pkgDir, err)
	}
	imports, err := importsOf(pkgDir, names)
	if err != nil {
		t.Fatalf("scanning imports: %v", err)
	}
	exports, std, _, err := goListExport(pkgDir, imports)
	if err != nil {
		t.Fatalf("loading export data: %v", err)
	}
	fset := token.NewFileSet()
	pkg, err := checkPackage(fset, exportImporter(fset, exports), "example.com/golifecycle", pkgDir, names)
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	facts := CollectFacts([]*Package{pkg}, std)
	diags, _ := RunAnalyzers(fset, []*Package{pkg}, []*Analyzer{GoLifecycle}, facts)
	if len(diags) != 0 {
		t.Errorf("out-of-scope package produced %d findings, want 0: %v", len(diags), diags)
	}
}

func TestCtxFlowGolden(t *testing.T) {
	if got := RunGolden(t, CtxFlow, "ctxflow"); got < 1 {
		t.Errorf("suppressed = %d, want >= 1 (testdata carries an ignored false positive)", got)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Errorf("ByName(nosuch) = non-nil")
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text  string
		names []string
		ok    bool
		bad   bool
	}{
		{"//lint:ignore errdrop reason here", []string{"errdrop"}, true, false},
		{"//lint:ignore errdrop,spinguard shared reason", []string{"errdrop", "spinguard"}, true, false},
		{"//lint:ignore * blanket reason", []string{"*"}, true, false},
		{"//lint:ignore errdrop", nil, false, true},         // missing reason
		{"//lint:ignore", nil, false, true},                 // missing everything
		{"//lint:ignore ,errdrop reason", nil, false, true}, // empty name
		{"//lint:ignoreXYZ something", nil, false, false},   // not ours
		{"// plain comment", nil, false, false},
	}
	for _, c := range cases {
		names, ok, bad := parseIgnore(c.text)
		if ok != c.ok || bad != c.bad {
			t.Errorf("parseIgnore(%q) = ok=%v bad=%v, want ok=%v bad=%v", c.text, ok, bad, c.ok, c.bad)
			continue
		}
		if len(names) != len(c.names) {
			t.Errorf("parseIgnore(%q) names = %v, want %v", c.text, names, c.names)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("parseIgnore(%q) names = %v, want %v", c.text, names, c.names)
			}
		}
	}
}

func TestParseWant(t *testing.T) {
	cases := []struct {
		text     string
		patterns int
		isWant   bool
		wantErr  bool
	}{
		{`// want "one"`, 1, true, false},
		{`// want "one" "two"`, 2, true, false},
		{"// want `backquoted`", 1, true, false},
		{`// wanted more`, 0, false, false},
		{`// plain`, 0, false, false},
		{`// want`, 0, true, true},
		{`// want notquoted`, 0, true, true},
	}
	for _, c := range cases {
		pats, isWant, err := parseWant(c.text)
		if isWant != c.isWant || (err != nil) != c.wantErr || len(pats) != c.patterns {
			t.Errorf("parseWant(%q) = %d patterns, isWant=%v, err=%v; want %d, %v, err=%v",
				c.text, len(pats), isWant, err, c.patterns, c.isWant, c.wantErr)
		}
	}
}

// FuzzParseWant fuzzes the two comment micro-parsers the harness and the
// suppression machinery rely on: they must never panic, and their
// invariants must hold for arbitrary comment text.
func FuzzParseWant(f *testing.F) {
	f.Add(`// want "one" "two"`)
	f.Add("// want `re`")
	f.Add("//lint:ignore errdrop reason")
	f.Add("//lint:ignore a,b reason with spaces")
	f.Add("//lint:ignore")
	f.Add("// want")
	f.Add(`// want "unterminated`)
	f.Fuzz(func(t *testing.T, text string) {
		pats, isWant, err := parseWant(text)
		if !isWant && (len(pats) > 0 || err != nil) {
			t.Errorf("parseWant(%q): non-want comment returned patterns/error", text)
		}
		if err == nil && isWant && len(pats) == 0 {
			t.Errorf("parseWant(%q): want comment with no patterns and no error", text)
		}

		names, ok, bad := parseIgnore(text)
		if ok && bad {
			t.Errorf("parseIgnore(%q): both ok and bad", text)
		}
		if ok && len(names) == 0 {
			t.Errorf("parseIgnore(%q): ok with no analyzer names", text)
		}
		if !ok && len(names) > 0 {
			t.Errorf("parseIgnore(%q): not ok but returned names", text)
		}
	})
}
