// Package hotpathalloc is golden-test input for the hot-path allocation
// contract. Functions with `// want` comments are hotpathalloc's true
// positives (growth, string building, goroutines, unannotated calls); the
// sanctioned shapes (launch bodies, annotated callees, cold panic paths)
// must stay clean. The heap escapes below carry no `// want`: hotpathalloc
// leaves them to the compiler's escape gate, and
// TestEscapeGateCoversDroppedRules builds this package to prove that
// gate reports each one.
package hotpathalloc

import (
	"fmt"
	"sync/atomic"
)

// Pool mimics exec.SpinPool's launch surface; function literals passed
// to Run/ParallelFor are the one sanctioned per-launch closure.
type Pool struct{ workers int }

func (p *Pool) Run(body func(w int))                     { body(0) }
func (p *Pool) ParallelFor(n int, body func(lo, hi int)) { body(0, n) }

type point struct{ x, y int }

var (
	sink     any
	keptFunc func()
)

//sptrsv:hotpath
func kernelOK(x []float64, c *atomic.Int64) {
	for i := range x {
		x[i] *= 2
	}
	c.Add(1)
}

//sptrsv:hotpath
func kernelAppend(x []float64) []float64 {
	return append(x, 1) // want `hot path calls append, which allocates on growth`
}

//sptrsv:hotpath
func kernelFmt(n int) {
	fmt.Println(n) // want `hot path calls fmt.Println, which is neither //sptrsv:hotpath nor whitelisted`
}

//sptrsv:hotpath
func kernelConcat(a, b string) string {
	return a + b // want `hot path allocates: string concatenation`
}

//sptrsv:hotpath
func kernelBytes(b []byte) int {
	return len(string(b)) // want `hot path allocates: string/slice conversion`
}

// kernelGo starts a goroutine without arguments, which the compiler's
// escape output does not mention.
//
//sptrsv:hotpath
func kernelGo() {
	go idle() // want `hot path launches a goroutine`
}

//sptrsv:hotpath
func idle() {}

// kernelGeneric converts through a type parameter: T's underlying type is
// its constraint interface, but no interface value exists at runtime, so
// the conversion must stay clean.
//
//sptrsv:hotpath
func kernelGeneric[T float32 | float64](v uint64) T {
	return T(v)
}

func plainHelper() {}

//sptrsv:hotpath
func callsPlain() {
	plainHelper() // want `hot path calls example.com/hotpathalloc.plainHelper, which is neither //sptrsv:hotpath nor whitelisted`
}

// launchBody hands the pool its per-launch closure: the capture of xs is
// sanctioned, the body itself is still checked.
//
//sptrsv:hotpath
func launchBody(p *Pool, xs []float64) {
	p.Run(func(w int) {
		xs[w] = 0
	})
}

// callsAnnotated may call kernelOK because it carries the pragma too.
//
//sptrsv:hotpath
func callsAnnotated(x []float64, c *atomic.Int64) {
	kernelOK(x, c)
}

// coldPanic's panic argument is cold code: fmt.Sprintf there is fine.
//
//sptrsv:hotpath
func coldPanic(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n))
	}
	return n
}

// falsePositive grows a scratch slice once at setup time; the growth is
// amortised across every later solve, so the finding is suppressed.
//
//sptrsv:hotpath
func falsePositive(xs []float64) []float64 {
	//lint:ignore hotpathalloc setup-time growth, amortised across all later solves
	return append(xs, 0)
}

// kernelLiterals' literals stay on the stack: the compiler proves they do
// not escape, and neither gate reports them.
//
//sptrsv:hotpath
func kernelLiterals() int {
	s := []int{1, 2, 3}
	m := map[string]int{}
	return len(s) + len(m)
}

// The heap escapes the escape gate reports, one per construct.

//sptrsv:hotpath
func escSliceLit() []int {
	return []int{1, 2, 3}
}

//sptrsv:hotpath
func escMapLit() map[string]int {
	return map[string]int{"a": 1}
}

//sptrsv:hotpath
func escAddrLit() *point {
	return &point{1, 2}
}

//sptrsv:hotpath
func kernelMake(n int) int {
	buf := make([]float64, n)
	return len(buf)
}

//sptrsv:hotpath
func escNew() *point {
	return new(point)
}

//sptrsv:hotpath
func kernelClosure(xs []float64) func() {
	f := func() { xs[0] = 1 }
	return f
}

//sptrsv:hotpath
func kernelBox(v float64) any {
	return v
}

//sptrsv:hotpath
func sinkAny(v any) {
	sink = v
}

//sptrsv:hotpath
func escBoxArg(v float64) {
	sinkAny(v)
}

//sptrsv:hotpath
func escBoxAssign(v float64) {
	sink = v
}

//sptrsv:hotpath
func escBoxVar(v float64) {
	var i any = v
	sink = i
}

//sptrsv:hotpath
func keep(f func()) {
	keptFunc = f
}

// escClosureArg hands a capturing closure to an annotated helper that is
// not a launch: neither the literal nor its capture is sanctioned.
//
//sptrsv:hotpath
func escClosureArg() int {
	n := 0
	keep(func() { n++ })
	return n
}

// boxesInGeneric boxes inside a generic body, instantiated at both
// element types the kernels ship at.
//
//sptrsv:hotpath
func boxesInGeneric[T float32 | float64](x []T) {
	n := len(x)
	sink = n
}

var _ = [...]any{boxesInGeneric[float32], boxesInGeneric[float64]}
