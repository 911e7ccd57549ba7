// mminfo prints the structural features of Matrix Market files that drive
// SpTRSV algorithm choice: size, fill, level-set count and per-level
// parallelism of the lower triangle (the feature columns of the paper's
// Table 4), plus the kernel Algorithm 7 would select for the whole matrix.
//
// Usage:
//
//	mminfo matrix1.mtx [matrix2.mtx ...]
//	mminfo -check matrix.mtx    # validate instead: report the first defect
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

func main() {
	check := flag.Bool("check", false, "validate each matrix (structure, finite values, nonzero lower-triangular diagonal) and report the first defect with its coordinates")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mminfo [-check] <file.mtx> ...")
		os.Exit(2)
	}
	status := 0
	for _, path := range flag.Args() {
		run := report
		if *check {
			run = validate
		}
		if err := run(path); err != nil {
			fmt.Fprintf(os.Stderr, "mminfo: %s: %v\n", path, err)
			status = 1
		}
	}
	os.Exit(status)
}

// validate runs the guarded path's analyze-time checks and renders the
// first defect with its coordinates, so a bad matrix is diagnosed before
// it reaches a solver.
func validate(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := sparse.ReadMatrixMarket[float64](f)
	if err != nil {
		return err
	}
	if err := sparse.Validate(m); err != nil {
		return describeDefect(err)
	}
	fmt.Printf("%s: structure and values ok (%d x %d, %d nonzeros)\n", path, m.Rows, m.Cols, m.NNZ())
	if m.Rows != m.Cols {
		fmt.Println("  not square: triangular checks skipped")
		return nil
	}
	if err := sparse.ValidateLower(m); err == nil {
		fmt.Println("  solvable as a lower-triangular system")
	} else if uerr := sparse.ValidateUpper(m); uerr == nil {
		fmt.Println("  solvable as an upper-triangular system")
	} else {
		fmt.Printf("  not directly solvable: as lower: %v; as upper: %v\n", err, uerr)
	}
	return nil
}

func describeDefect(err error) error {
	var nf sparse.ErrNonFinite
	if errors.As(err, &nf) {
		return fmt.Errorf("non-finite value at row %d, column %d", nf.Row, nf.Col)
	}
	var zd sparse.ErrZeroDiagonal
	if errors.As(err, &zd) {
		return fmt.Errorf("missing, zero or out-of-range diagonal at row %d", zd.Row)
	}
	return err
}

func report(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := sparse.ReadMatrixMarket[float64](f)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", path)
	fmt.Printf("  shape        %d x %d\n", m.Rows, m.Cols)
	fmt.Printf("  nnz          %d (%.2f per row, %.1f%% rows empty)\n",
		m.NNZ(), m.NNZPerRow(), 100*m.EmptyRowRatio())
	rs := m.RowStats()
	fmt.Printf("  row lengths  min/median/p99/max %d/%d/%d/%d, Gini %.2f\n",
		rs.MinLen, rs.P50Len, rs.P99Len, rs.MaxLen, rs.Gini)
	fmt.Printf("  bandwidth    %d\n", rs.Bandwidth)
	if m.Rows != m.Cols {
		fmt.Printf("  (not square: triangular analysis skipped)\n")
		return nil
	}
	l, err := sparse.LowerTriangle(m, true)
	if err != nil {
		return err
	}
	info := levelset.FromLowerCSR(l)
	st := info.Stats()
	fmt.Printf("  lower tri    nnz=%d\n", l.NNZ())
	fmt.Printf("  level sets   %d (parallelism min/avg/max %d/%.1f/%d)\n",
		st.NLevels, st.MinWidth, st.AvgWidth, st.MaxWidth)
	strict, _, err := sparse.SplitDiagCSC(l.ToCSC())
	if err != nil {
		return err
	}
	feats := adapt.TriFeaturesOf(strict, info)
	kernel := adapt.DefaultThresholds().SelectTri(feats)
	fmt.Printf("  whole-matrix kernel per Algorithm 7: %v\n", kernel)
	return nil
}
