package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tmpModule writes a throwaway module with three packages: clean (no
// findings), dirty (a dropped error and a bare spin loop), and broken
// (does not compile). Tests drive run() against it to pin the exit-code
// contract.
func tmpModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/tmpmod\n\ngo 1.24\n",
		"clean/clean.go": `package clean

func Double(x []float64) {
	for i := range x {
		x[i] *= 2
	}
}
`,
		"dirty/dirty.go": `package dirty

import "sync/atomic"

func ValidateThing(n int) error { return nil }

func drop(n int) {
	ValidateThing(n)
}

func spin(v *atomic.Int32) {
	for v.Load() != 0 {
	}
}
`,
		"broken/broken.go": `package broken

func f() int { return undefinedSymbol }
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeClean(t *testing.T) {
	dir := tmpModule(t)
	code, stdout, stderr := runLint(t, "-C", dir, "./clean/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed %q", stdout)
	}
}

func TestExitCodeFindings(t *testing.T) {
	dir := tmpModule(t)
	code, stdout, _ := runLint(t, "-C", dir, "./dirty/...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q", code, stdout)
	}
	for _, needle := range []string{"errdrop", "spinguard", "dirty.go"} {
		if !strings.Contains(stdout, needle) {
			t.Errorf("stdout missing %q:\n%s", needle, stdout)
		}
	}
}

func TestExitCodeLoadError(t *testing.T) {
	dir := tmpModule(t)
	code, _, stderr := runLint(t, "-C", dir, "./broken/...")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr=%q", code, stderr)
	}
	if !strings.Contains(stderr, "undefinedSymbol") {
		t.Errorf("stderr does not carry the compiler message: %q", stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := tmpModule(t)
	code, stdout, _ := runLint(t, "-json", "-C", dir, "./dirty/...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("stdout is not a JSON report envelope: %v\n%s", err, stdout)
	}
	if report.Schema != jsonSchemaVersion {
		t.Errorf("schema = %d, want %d", report.Schema, jsonSchemaVersion)
	}
	if len(report.Findings) < 2 {
		t.Fatalf("got %d findings, want >= 2 (errdrop + spinguard)", len(report.Findings))
	}
	seen := map[string]bool{}
	for _, d := range report.Findings {
		seen[d.Analyzer] = true
		if d.File == "" || d.Line <= 0 || d.Message == "" {
			t.Errorf("incomplete finding: %+v", d)
		}
	}
	if !seen["errdrop"] || !seen["spinguard"] {
		t.Errorf("analyzers seen = %v, want errdrop and spinguard", seen)
	}
}

// TestJSONGolden pins the envelope byte shape consumers parse: a schema
// field at version 1 and a findings array that is [] (not null) on a
// clean run, so `jq .findings[]` works unconditionally.
func TestJSONGolden(t *testing.T) {
	dir := tmpModule(t)
	code, stdout, _ := runLint(t, "-json", "-C", dir, "./clean/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	want := "{\n  \"schema\": 1,\n  \"findings\": []\n}\n"
	if stdout != want {
		t.Errorf("clean -json output = %q, want %q", stdout, want)
	}
}

func TestOnlySelectsAnalyzers(t *testing.T) {
	dir := tmpModule(t)
	code, stdout, _ := runLint(t, "-only", "errdrop", "-C", dir, "./dirty/...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "errdrop") {
		t.Errorf("stdout missing errdrop finding:\n%s", stdout)
	}
	if strings.Contains(stdout, "spinguard") {
		t.Errorf("-only errdrop still ran spinguard:\n%s", stdout)
	}
}

func TestOnlyUnknownAnalyzer(t *testing.T) {
	dir := tmpModule(t)
	code, _, stderr := runLint(t, "-only", "nosuch", "-C", dir, "./clean/...")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown analyzer message", stderr)
	}
	// The error must list every valid name so the fix is one copy-paste away.
	for _, name := range []string{"hotpathalloc", "atomicmix", "spinguard", "nowallclock", "errdrop", "golifecycle", "ctxflow"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("stderr does not list analyzer %q: %q", name, stderr)
		}
	}
}

// tmpM2Module writes a throwaway module exercising the compiler gates: a
// package whose hot-path functions all inline, one whose hot-path
// function cannot inline, one with an unsanctioned hot-path heap escape,
// and one where the same escape carries a reviewed suppression. Its
// internal/lint directory is where -update writes the allowlists.
func tmpM2Module(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/m2mod\n\ngo 1.24\n",
		"inlok/inlok.go": `package inlok

//sptrsv:hotpath
func Double(x int) int {
	return x * 2
}
`,
		"inlbad/inlbad.go": `package inlbad

var hook func()

//sptrsv:hotpath
func Deferred() {
	defer hook()
	hook()
}
`,
		"esc/esc.go": `package esc

//sptrsv:hotpath
func Scratch(n int) []float64 {
	return make([]float64, n)
}
`,
		"escok/escok.go": `package escok

//sptrsv:hotpath
func Scratch(n int) []float64 {
	//lint:ignore escapecheck reviewed per-call scratch buffer
	return make([]float64, n)
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "internal", "lint"), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCompilerGatesClean(t *testing.T) {
	dir := tmpM2Module(t)
	code, stdout, stderr := runLint(t, "-compiler", "-C", dir, "./inlok/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, stdout, stderr)
	}
	for _, needle := range []string{"bce: ok:", "inl: ok: 1/1", "escape: ok:", "./inlok"} {
		if !strings.Contains(stdout, needle) {
			t.Errorf("stdout missing %q:\n%s", needle, stdout)
		}
	}
}

// TestCompilerDerivesPackages pins the default package set: without
// arguments the audit covers exactly the packages declaring a hot-path
// function, so it fails on both bad packages and names no other.
func TestCompilerDerivesPackages(t *testing.T) {
	dir := tmpM2Module(t)
	if err := os.WriteFile(filepath.Join(dir, "inlok", "cold.go"), []byte("package inlok\n\nfunc Cold() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "plain"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "plain", "plain.go"), []byte("package plain\n\nfunc F() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runLint(t, "-compiler", "-C", dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q stderr=%q", code, stdout, stderr)
	}
	for _, needle := range []string{"across ./esc ./escok ./inlbad ./inlok\n", "inl: FAIL: 1", "escape: FAIL: 1"} {
		if !strings.Contains(stdout, needle) {
			t.Errorf("stdout missing %q:\n%s", needle, stdout)
		}
	}
}

func TestInlGateViolation(t *testing.T) {
	dir := tmpM2Module(t)
	code, stdout, stderr := runLint(t, "-compiler", "-C", dir, "./inlbad/...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q stderr=%q", code, stdout, stderr)
	}
	// The failure must carry the compiler's reason verbatim plus the
	// actionable next steps: fix or allowlist, and where that is specified.
	for _, needle := range []string{"Deferred", "unhandled op DEFER", "inl: FAIL", "DESIGN.md §6.13", "escape: ok:"} {
		if !strings.Contains(stdout, needle) {
			t.Errorf("stdout missing %q:\n%s", needle, stdout)
		}
	}
}

func TestCompilerUpdateAndRecheck(t *testing.T) {
	dir := tmpM2Module(t)
	code, stdout, stderr := runLint(t, "-compiler", "-update", "-C", dir, "./inlbad/...")
	if code != 0 {
		t.Fatalf("update exit = %d, want 0; stdout=%q stderr=%q", code, stdout, stderr)
	}
	allowFile := filepath.Join(dir, "internal", "lint", "inl_allow.txt")
	first, err := os.ReadFile(allowFile)
	if err != nil {
		t.Fatalf("allowlist not written: %v", err)
	}
	if !strings.Contains(string(first), "inlbad/inlbad.go:Deferred\tunhandled op DEFER") {
		t.Errorf("allowlist does not record the compiler reason verbatim:\n%s", first)
	}
	if _, err := os.Stat(filepath.Join(dir, "internal", "lint", "bce_allow.txt")); err != nil {
		t.Errorf("BCE allowlist not written: %v", err)
	}

	// With the allowlist in place the gates pass.
	code, stdout, _ = runLint(t, "-compiler", "-C", dir, "./inlbad/...")
	if code != 0 {
		t.Fatalf("recheck exit = %d, want 0; stdout=%q", code, stdout)
	}

	// Regeneration from the same tree is byte-identical.
	if code, _, _ = runLint(t, "-compiler", "-update", "-C", dir, "./inlbad/..."); code != 0 {
		t.Fatalf("second update exit = %d, want 0", code)
	}
	second, err := os.ReadFile(allowFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("allowlist regeneration is not byte-identical:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

func TestEscapeGateViolation(t *testing.T) {
	dir := tmpM2Module(t)
	code, stdout, stderr := runLint(t, "-compiler", "-C", dir, "./esc/...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q stderr=%q", code, stdout, stderr)
	}
	for _, needle := range []string{"Scratch", "make([]float64, n)", "escape: FAIL", "DESIGN.md §6.13", "inl: ok:"} {
		if !strings.Contains(stdout, needle) {
			t.Errorf("stdout missing %q:\n%s", needle, stdout)
		}
	}
}

func TestEscapeGateSuppressed(t *testing.T) {
	dir := tmpM2Module(t)
	code, stdout, stderr := runLint(t, "-compiler", "-C", dir, "./escok/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "escape: ok:") || !strings.Contains(stdout, "1 suppressed") {
		t.Errorf("stdout = %q, want escape: ok with one suppressed site", stdout)
	}
}

func TestCompilerNoHotPackages(t *testing.T) {
	dir := tmpModule(t)
	code, _, stderr := runLint(t, "-compiler", "-C", dir, "./clean/...")
	if code != 2 || !strings.Contains(stderr, "no //sptrsv:hotpath functions") {
		t.Errorf("exit = %d stderr = %q, want 2 and a no-hot-functions error", code, stderr)
	}
}
