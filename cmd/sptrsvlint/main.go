// Command sptrsvlint runs the project's static-analysis suite
// (DESIGN.md §6.8) over the module: hotpathalloc, atomicmix, spinguard,
// nowallclock, errdrop, golifecycle and ctxflow. It loads and
// type-checks the packages named by its arguments (default ./...) and
// prints one deterministic file:line:col: analyzer: message diagnostic
// per finding.
//
// Usage:
//
//	sptrsvlint [-json] [-only analyzer,analyzer] [-C dir] [packages]
//	sptrsvlint -compiler [-update] [-C dir] [packages]
//
// The -compiler mode runs the compiler gates instead (DESIGN.md §6.9,
// §6.13). It builds every package (among the given ones, default ./...)
// that declares a //sptrsv:hotpath function once with
// -gcflags='-m=2 -d=ssa/check_bce' under the bcecheck build tag, and
// fails when a hot-path function carries more surviving bounds checks
// than internal/lint/bce_allow.txt permits, cannot inline without a
// reviewed internal/lint/inl_allow.txt entry recording the compiler's
// reason verbatim, or has a heap escape beyond the sanctioned per-launch
// publication costs. -update rewrites both allowlists from the audit.
//
// Exit codes: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/sss-lab/blocksptrsv/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sptrsvlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", ".", "load packages from this directory")
	compiler := fs.Bool("compiler", false, "run the compiler gates (bounds checks, inlining, escapes) from one audit build instead of the analyzers")
	update := fs.Bool("update", false, "with -compiler: rewrite both allowlists from the audit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compiler {
		return runCompiler(*dir, *update, fs.Args(), stdout, stderr)
	}

	analyzers := lint.All
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "sptrsvlint: unknown analyzer %q (have %s)\n", name, analyzerNames())
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	ld, err := lint.LoadPackages(*dir, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "sptrsvlint: %v\n", err)
		return 2
	}
	facts := lint.CollectFacts(ld.Pkgs, ld.Std)
	diags, _ := lint.RunAnalyzers(ld.Fset, ld.Pkgs, analyzers, facts)

	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "sptrsvlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// The committed allowlists, relative to -C.
const (
	bceAllowPath = "internal/lint/bce_allow.txt"
	inlAllowPath = "internal/lint/inl_allow.txt"
)

// runCompiler runs the three compiler gates off one audit build, or with
// update rewrites both allowlists from it.
func runCompiler(dir string, update bool, pkgs []string, stdout, stderr io.Writer) int {
	audited, funcs, err := lint.CompilerAudit(dir, pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "sptrsvlint: compiler audit: %v\n", err)
		return 2
	}
	bceFile := filepath.Join(dir, filepath.FromSlash(bceAllowPath))
	inlFile := filepath.Join(dir, filepath.FromSlash(inlAllowPath))
	if update {
		err := os.WriteFile(bceFile, []byte(lint.FormatBCEAllow(funcs)), 0o644)
		if err == nil {
			err = os.WriteFile(inlFile, []byte(lint.FormatInlAllow(funcs)), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "sptrsvlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "compiler: allowlists rewritten: %s %s\n", bceAllowPath, inlAllowPath)
		return 0
	}
	bceAllow, err := lint.LoadBCEAllow(bceFile)
	if err != nil {
		fmt.Fprintf(stderr, "sptrsvlint: %v\n", err)
		return 2
	}
	inlAllow, err := lint.LoadInlAllow(inlFile)
	if err != nil {
		fmt.Fprintf(stderr, "sptrsvlint: %v\n", err)
		return 2
	}
	inlined, sanctioned, suppressed := 0, 0, 0
	for _, f := range funcs {
		if f.Inlines() {
			inlined++
		}
		sanctioned += f.Sanctioned
		suppressed += f.Suppressed
	}
	code := 0
	for _, g := range []struct {
		name     string
		res      lint.GateResult
		fail, ok string
	}{
		{"bce", lint.CheckBCE(funcs, bceAllow), "over-budget hot-path function(s) or allowlist entries for gone ones (see DESIGN.md §6.9)",
			fmt.Sprintf("%d hot-path function(s) within budget", len(funcs))},
		{"inl", lint.CheckInl(funcs, inlAllow), "non-inlining hot-path function(s) or allowlist entries for gone ones (see DESIGN.md §6.13)",
			fmt.Sprintf("%d/%d hot-path function(s) inline (rest allowlisted)", inlined, len(funcs))},
		{"escape", lint.CheckEscapes(funcs), "unsanctioned heap escape(s) in hot-path functions (see DESIGN.md §6.13)",
			fmt.Sprintf("no unsanctioned hot-path escapes (%d sanctioned, %d suppressed)", sanctioned, suppressed)},
	} {
		for _, s := range g.res.Stale {
			fmt.Fprintf(stdout, "%s: note: %s\n", g.name, s)
		}
		for _, v := range g.res.Violations {
			fmt.Fprintf(stdout, "%s: %s\n", g.name, v)
		}
		if len(g.res.Violations) > 0 {
			fmt.Fprintf(stdout, "%s: FAIL: %d %s\n", g.name, len(g.res.Violations), g.fail)
			code = 1
		} else {
			fmt.Fprintf(stdout, "%s: ok: %s across %s\n", g.name, g.ok, strings.Join(audited, " "))
		}
	}
	return code
}

// jsonDiag is the stable JSON shape of one diagnostic.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the versioned envelope CI consumers parse. Schema is
// bumped on any incompatible change to the findings shape; additive
// fields do not bump it.
type jsonReport struct {
	Schema   int        `json:"schema"`
	Findings []jsonDiag `json:"findings"`
}

// jsonSchemaVersion is the current -json envelope version.
const jsonSchemaVersion = 1

func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	out := jsonReport{Schema: jsonSchemaVersion, Findings: make([]jsonDiag, 0, len(diags))}
	for _, d := range diags {
		out.Findings = append(out.Findings, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func analyzerNames() string {
	names := make([]string, 0, len(lint.All))
	for _, a := range lint.All {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
