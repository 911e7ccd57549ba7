// matgen generates the synthetic benchmark corpus as Matrix Market files.
//
// Usage:
//
//	matgen -list                     # show corpus entries
//	matgen -name fullchip-like -out fullchip.mtx
//	matgen -all -dir ./matrices      # write the whole corpus
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list corpus entries and exit")
		name  = flag.String("name", "", "corpus entry to generate")
		out   = flag.String("out", "", "output .mtx path (default <name>.mtx)")
		all   = flag.Bool("all", false, "generate every corpus entry")
		dir   = flag.String("dir", "", "output directory for -all")
		scale = flag.Float64("scale", 0.25, "size multiplier (-name / -all)")
	)
	flag.Parse()

	entries := gen.Corpus(*scale)
	if *list {
		fmt.Printf("%-24s %s\n", "name", "group")
		for _, e := range entries {
			fmt.Printf("%-24s %s\n", e.Name, e.Group)
		}
		return
	}

	write := func(e gen.Entry, path string) error {
		m := e.Build()
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sparse.WriteMatrixMarket(f, m); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s)\n", path, gen.Describe(m))
		return nil
	}

	switch {
	case *all:
		d := *dir
		if d == "" {
			d = "."
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatal(err)
		}
		for _, e := range entries {
			fname := strings.ReplaceAll(e.Name, "%", "pct") + ".mtx"
			if err := write(e, filepath.Join(d, fname)); err != nil {
				fatal(err)
			}
		}
	case *name != "":
		for _, e := range entries {
			if e.Name == *name {
				path := *out
				if path == "" {
					path = *name + ".mtx"
				}
				if err := write(e, path); err != nil {
					fatal(err)
				}
				return
			}
		}
		fatal(fmt.Errorf("unknown corpus entry %q (use -list)", *name))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matgen:", err)
	os.Exit(1)
}
