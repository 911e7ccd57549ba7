// sptrsvtune fits the adaptive kernel-selection thresholds (Algorithm 7's
// cut points) to the current machine by running a reduced Figure-5 sweep,
// and optionally saves them as JSON for cmd/sptrsv -thresholds or for
// embedding into applications.
//
// Usage:
//
//	sptrsvtune                      # print fitted vs default thresholds
//	sptrsvtune -rows 40000 -out thresholds.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
)

func main() {
	var (
		workers = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		rows    = flag.Int("rows", 20000, "sub-block size to tune at")
		repeats = flag.Int("repeats", 3, "best-of-N timing repeats per cell")
		out     = flag.String("out", "", "write fitted thresholds as JSON to this file")
	)
	flag.Parse()

	pool := exec.NewSpinPool(*workers)
	defer pool.Close()
	fmt.Printf("tuning on %d workers, %d-row blocks (best of %d)...\n", pool.Workers(), *rows, *repeats)
	t0 := time.Now()
	fitted := adapt.QuickFit(pool, *rows, *repeats, 9001)
	fmt.Printf("sweep finished in %v\n\n", time.Since(t0).Round(time.Millisecond))

	def := adapt.DefaultThresholds()
	fmt.Printf("%-26s %14s %14s\n", "threshold", "default", "fitted (here)")
	row := func(name string, d, f any) { fmt.Printf("%-26s %14v %14v\n", name, d, f) }
	row("TriParallelMinWork", def.TriParallelMinWork, fitted.TriParallelMinWork)
	row("TriLevelSetMaxNNZRow", def.TriLevelSetMaxNNZRow, fitted.TriLevelSetMaxNNZRow)
	row("TriLevelSetMaxLevels", def.TriLevelSetMaxLevels, fitted.TriLevelSetMaxLevels)
	row("TriChainMaxNNZRow", def.TriChainMaxNNZRow, fitted.TriChainMaxNNZRow)
	row("TriChainMaxLevels", def.TriChainMaxLevels, fitted.TriChainMaxLevels)
	row("TriCuSparseMinLevels", def.TriCuSparseMinLevels, fitted.TriCuSparseMinLevels)
	row("SpMVScalarMaxNNZRow", def.SpMVScalarMaxNNZRow, fitted.SpMVScalarMaxNNZRow)
	row("SpMVScalarDCSRMin", def.SpMVScalarDCSRMin, fitted.SpMVScalarDCSRMin)
	row("SpMVVectorDCSRMin", def.SpMVVectorDCSRMin, fitted.SpMVVectorDCSRMin)

	if *out != "" {
		data, err := json.MarshalIndent(fitted, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nfitted thresholds written to %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sptrsvtune:", err)
	os.Exit(1)
}
