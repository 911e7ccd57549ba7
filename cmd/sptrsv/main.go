// sptrsv solves a sparse lower-triangular system from a Matrix Market
// file end-to-end: read, (optionally) extract the lower triangle,
// preprocess with a chosen algorithm, solve, verify the residual and
// report timings.
//
// Usage:
//
//	sptrsv -matrix L.mtx                         # solve L·x = 1⃗
//	sptrsv -matrix A.mtx -lower -algo sync-free  # tril(A)+unit diag
//	sptrsv -matrix L.mtx -rhs b.txt -out x.txt   # explicit rhs, save x
//	sptrsv -matrix L.mtx -iters 100              # amortisation report
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	sptrsv "github.com/sss-lab/blocksptrsv"
)

// guardOptions arms the guarded solve path on opts for the -verify flag:
// analyze-time validation, per-solve residual checks with one refinement
// step, serial fallback as the last rung.
func guardOptions(opts *sptrsv.Options, tol float64) {
	if tol <= 0 {
		return
	}
	opts.Validate = true
	opts.VerifyResidual = tol
	opts.Refine = true
}

func main() {
	var (
		matrixPath = flag.String("matrix", "", "Matrix Market file with the system matrix (required)")
		lower      = flag.Bool("lower", false, "extract the lower triangle and insert unit diagonals (the paper's recipe for general matrices)")
		algo       = flag.String("algo", "block-recursive", "algorithm: "+strings.Join(sptrsv.Algorithms(), ", "))
		rhsPath    = flag.String("rhs", "", "right-hand side file (one value per line); default all ones")
		outPath    = flag.String("out", "", "write the solution here (one value per line)")
		workers    = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		iters      = flag.Int("iters", 1, "number of solves (amortisation report)")
		saveA      = flag.String("save-analysis", "", "save the block solver's preprocessing to this file (block-recursive only)")
		loadA      = flag.String("load-analysis", "", "reuse preprocessing from this file instead of analysing")
		thresholds = flag.String("thresholds", "", "JSON file with fitted kernel-selection thresholds (see sptrsvtune); block algorithms only")
		verify     = flag.Float64("verify", 0, "residual tolerance for the guarded solve path: validate the input, check every solution, refine or fall back to the serial reference on failure (block-recursive only; 0 = off)")
		tracePath  = flag.String("trace", "", "record every plan step of every solve and write Chrome trace_event JSON here (block algorithms only; open in chrome://tracing or Perfetto)")
		explain    = flag.Bool("explain", false, "print the preprocessed execution plan: partition tree, per-block features, selected kernels (block algorithms only)")
		metrics    = flag.Bool("metrics", false, "print the process-wide metrics registry as JSON after solving")
		serve      = flag.String("serve", "", "serve the observability endpoints (/metrics, /debug/pprof, /explain, /trace) on this address and stay alive after solving, e.g. :6060")
	)
	flag.Parse()
	if *matrixPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	m, err := sptrsv.ReadMatrixMarketFile[float64](*matrixPath)
	fatalIf(err)
	fmt.Printf("matrix: %d x %d, %d nonzeros\n", m.Rows, m.Cols, m.NNZ())
	l := m
	if *lower {
		l, err = sptrsv.LowerTriangle(m, true)
		fatalIf(err)
		fmt.Printf("lower triangle: %d nonzeros (unit diagonals inserted where missing)\n", l.NNZ())
	}

	b := make([]float64, l.Rows)
	if *rhsPath != "" {
		fatalIf(readVector(*rhsPath, b))
	} else {
		for i := range b {
			b[i] = 1
		}
	}

	t0 := time.Now()
	var s sptrsv.BaselineSolver[float64]
	var guarded *sptrsv.Solver[float64] // set when -verify routes solves through SolveContext
	switch {
	case *loadA != "":
		if *verify > 0 {
			fatalIf(fmt.Errorf("-verify needs the original matrix and cannot be combined with -load-analysis"))
		}
		f, err := os.Open(*loadA)
		fatalIf(err)
		blockSolver, err := sptrsv.LoadSolver[float64](f, *workers)
		f.Close()
		fatalIf(err)
		if blockSolver.Rows() != l.Rows {
			fatalIf(fmt.Errorf("analysis file is for a %d-row system, matrix has %d rows", blockSolver.Rows(), l.Rows))
		}
		s = blockSolver
		fmt.Printf("analysis loaded from %s: %v\n", *loadA, time.Since(t0).Round(time.Microsecond))
	case *thresholds != "":
		if *algo != "block-recursive" {
			fatalIf(fmt.Errorf("-thresholds applies to block-recursive, got %s", *algo))
		}
		data, err := os.ReadFile(*thresholds)
		fatalIf(err)
		opts := sptrsv.DefaultOptions(*workers)
		fatalIf(json.Unmarshal(data, &opts.Thresholds))
		guardOptions(&opts, *verify)
		blockSolver, err := sptrsv.Analyze(l, opts)
		fatalIf(err)
		s = blockSolver
		if *verify > 0 {
			guarded = blockSolver
		}
		fmt.Printf("preprocessing (block-recursive, fitted thresholds): %v\n", time.Since(t0).Round(time.Microsecond))
	case *verify > 0:
		if *algo != "block-recursive" {
			fatalIf(fmt.Errorf("-verify applies to block-recursive, got %s", *algo))
		}
		opts := sptrsv.DefaultOptions(*workers)
		guardOptions(&opts, *verify)
		blockSolver, err := sptrsv.Analyze(l, opts)
		fatalIf(err)
		s, guarded = blockSolver, blockSolver
		fmt.Printf("preprocessing (block-recursive, validated): %v\n", time.Since(t0).Round(time.Microsecond))
	default:
		var err error
		s, err = sptrsv.NewSolver(*algo, l, *workers)
		fatalIf(err)
		fmt.Printf("preprocessing (%s): %v\n", *algo, time.Since(t0).Round(time.Microsecond))
	}

	blockSolver, _ := s.(*sptrsv.Solver[float64])
	if *saveA != "" {
		if blockSolver == nil {
			fatalIf(fmt.Errorf("-save-analysis requires a block algorithm, got %s", *algo))
		}
		f, err := os.Create(*saveA)
		fatalIf(err)
		n, err := blockSolver.WriteTo(f)
		fatalIf(err)
		fatalIf(f.Close())
		fmt.Printf("analysis saved to %s (%d bytes)\n", *saveA, n)
	}
	if (*tracePath != "" || *explain) && blockSolver == nil {
		fatalIf(fmt.Errorf("-trace/-explain require a block algorithm, got %s", *algo))
	}
	if *explain {
		fmt.Print(blockSolver.Explain())
	}
	var rec *sptrsv.TraceRecorder
	if *tracePath != "" {
		rec = sptrsv.NewTraceRecorder(0)
		blockSolver.SetTrace(rec)
	}
	if *serve != "" {
		// Serving wants a recorder so /trace has something to show; attach
		// one if tracing was not already requested and the solver supports it.
		if rec == nil && blockSolver != nil {
			rec = sptrsv.NewTraceRecorder(0)
			blockSolver.SetTrace(rec)
		}
		obs := sptrsv.ObsOptions{Trace: rec}
		if blockSolver != nil {
			obs.Explain = blockSolver.Explain
		}
		ln, err := net.Listen("tcp", *serve)
		fatalIf(err)
		fmt.Printf("observability endpoints on http://%s/ (metrics, pprof, explain, trace)\n", ln.Addr())
		go func() { fatalIf(http.Serve(ln, sptrsv.ObsHandler(obs))) }()
	}

	x := make([]float64, l.Rows)
	t0 = time.Now()
	if guarded != nil {
		for i := 0; i < *iters; i++ {
			fatalIf(guarded.SolveContext(context.Background(), b, x))
		}
	} else {
		for i := 0; i < *iters; i++ {
			s.Solve(b, x)
		}
	}
	total := time.Since(t0)
	per := total / time.Duration(*iters)
	fmt.Printf("solve: %v per solve (%d solves, %v total)\n", per.Round(time.Microsecond), *iters, total.Round(time.Microsecond))
	fmt.Printf("throughput: %.3f GFlops\n", 2*float64(l.NNZ())/per.Seconds()/1e9)
	fmt.Printf("residual: %.3e\n", sptrsv.Residual(l, x, b))
	if guarded != nil {
		st := guarded.Stats()
		fmt.Printf("verification: tolerance %.1e, %d refinements, %d serial fallbacks\n",
			*verify, st.Refinements, st.Fallbacks)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		fatalIf(err)
		fatalIf(rec.WriteChromeTrace(f))
		fatalIf(f.Close())
		sum := rec.Summarize()
		fmt.Printf("trace: %d steps of %d solves written to %s (tri %v, spmv %v)\n",
			sum.Steps, sum.Solves, *tracePath,
			sum.TriTime.Round(time.Microsecond), sum.SpMVTime.Round(time.Microsecond))
		if d := rec.Dropped(); d > 0 {
			fmt.Printf("trace: %d older steps were dropped by the bounded ring\n", d)
		}
	}
	if *metrics {
		fmt.Println(sptrsv.Metrics())
	}

	if *outPath != "" {
		fatalIf(writeVector(*outPath, x))
		fmt.Printf("solution written to %s\n", *outPath)
	}

	if *serve != "" {
		fmt.Println("serving until interrupted (ctrl-c to exit)")
		select {}
	}
}

func readVector(path string, out []float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	i := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#") {
			continue
		}
		if i >= len(out) {
			return fmt.Errorf("rhs file has more than %d values", len(out))
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return fmt.Errorf("rhs line %d: %w", i+1, err)
		}
		out[i] = v
		i++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if i != len(out) {
		return fmt.Errorf("rhs file has %d values, want %d", i, len(out))
	}
	return nil
}

func writeVector(path string, v []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	for _, x := range v {
		if _, err := fmt.Fprintf(bw, "%.17g\n", x); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sptrsv:", err)
		os.Exit(1)
	}
}
