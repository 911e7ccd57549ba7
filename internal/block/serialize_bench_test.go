package block

import (
	"bytes"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// BenchmarkLoadSolver times what a saved analysis buys: analyze is
// Preprocess under the shipped device-L options, load is ReadSolver of the
// stream WriteTo wrote, read from memory. Loading pays on the powerlaw
// suite matrix, whose analysis levels and splits it; it loses on the
// layered one, whose plan is one gather leaf on the caller's matrix, so
// analysis copies nothing while the stream carries a copy of L
// (EXPERIMENTS.md, "The plan cache on a restart"):
//
//	go test -run '^$' -bench LoadSolver -count 5 ./internal/block
func BenchmarkLoadSolver(b *testing.B) {
	dev := exec.DefaultDevices()[1]
	pool := dev.Pool()
	defer exec.CloseLauncher(pool)
	o := Defaults(dev)
	o.Pool = pool
	for _, m := range []struct {
		name string
		l    *sparse.CSR[float64]
	}{
		{"powerlaw", gen.PowerLaw(80_000, 4, 0.01, 4105)},
		{"layered", gen.Layered(100_000, 512, 6, 0, 4104)},
	} {
		s, err := Preprocess(m.l, o)
		if err != nil {
			b.Fatal(err)
		}
		var stream bytes.Buffer
		if _, err := s.WriteTo(&stream); err != nil {
			b.Fatal(err)
		}
		b.Run(m.name+"/analyze", func(b *testing.B) {
			for b.Loop() {
				if _, err := Preprocess(m.l, o); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(m.name+"/load", func(b *testing.B) {
			for b.Loop() {
				if _, err := ReadSolver[float64](bytes.NewReader(stream.Bytes()), pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
