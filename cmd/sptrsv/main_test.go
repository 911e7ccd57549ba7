package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	sptrsv "github.com/sss-lab/blocksptrsv"
)

// TestMain lets a test run this binary as the command itself:
// `<test binary> sptrsv <flags>` runs main with those flags.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sptrsv" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSptrsv runs the command with args and returns its output.
func runSptrsv(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{"sptrsv"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("sptrsv %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestSaveAnalysisWithVerifyAndThresholds: -save-analysis writes the
// analysis whichever way the block solver was built, and each saved file
// solves again through -load-analysis.
func TestSaveAnalysisWithVerifyAndThresholds(t *testing.T) {
	dir := t.TempDir()
	mtx := filepath.Join(dir, "l.mtx")
	f, err := os.Create(mtx)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := sptrsv.ILU0(sptrsv.GridSPD(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	if err := sptrsv.WriteMatrixMarket(f, l); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	th, err := json.Marshal(sptrsv.DefaultOptions(0).Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	// Files that sptrsvtune -out wrote while the thresholds carried a
	// measured launch cost keep loading: json.Unmarshal skips the key.
	th = append(th[:len(th)-1], `,"LaunchCost":41000}`...)
	thPath := filepath.Join(dir, "th.json")
	if err := os.WriteFile(thPath, th, 0o644); err != nil {
		t.Fatal(err)
	}

	for name, args := range map[string][]string{
		"verify":     {"-verify", "1e-8"},
		"thresholds": {"-thresholds", thPath},
	} {
		t.Run(name, func(t *testing.T) {
			saved := filepath.Join(dir, name+".bin")
			out := runSptrsv(t, append([]string{"-matrix", mtx, "-save-analysis", saved}, args...)...)
			if !strings.Contains(out, "analysis saved to "+saved) {
				t.Fatalf("no save reported:\n%s", out)
			}
			if _, err := os.Stat(saved); err != nil {
				t.Fatal(err)
			}
			out = runSptrsv(t, "-matrix", mtx, "-load-analysis", saved)
			if !strings.Contains(out, "analysis loaded from "+saved) {
				t.Fatalf("saved analysis not loaded:\n%s", out)
			}
		})
	}
}

func TestVectorRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.txt")
	v := []float64{1.5, -2, 0, 3.25e-8}
	if err := writeVector(path, v); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(v))
	if err := readVector(path, got); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("v[%d]=%g want %g", i, got[i], v[i])
		}
	}
}

func TestReadVectorErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.txt")

	// Too few values.
	if err := os.WriteFile(path, []byte("1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := readVector(path, make([]float64, 3)); err == nil {
		t.Fatal("short file accepted")
	}
	// Too many values.
	if err := readVector(path, make([]float64, 1)); err == nil {
		t.Fatal("long file accepted")
	}
	// Garbage value.
	if err := os.WriteFile(path, []byte("1\nzap\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := readVector(path, make([]float64, 2)); err == nil {
		t.Fatal("garbage accepted")
	}
	// Missing file.
	if err := readVector(filepath.Join(dir, "none"), make([]float64, 1)); err == nil {
		t.Fatal("missing file accepted")
	}
	// Comments and blank lines are skipped.
	if err := os.WriteFile(path, []byte("% c\n# c\n\n1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 2)
	if err := readVector(path, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("out=%v", out)
	}
}
