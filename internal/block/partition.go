package block

import "fmt"

// segKind distinguishes triangular solves from square/rectangular updates
// in the flattened execution plan.
type segKind uint8

const (
	triSeg segKind = iota
	sqSeg
)

// segSpec is one entry of the execution plan: either a triangular diagonal
// range (rowLo==colLo, rowHi==colHi) to solve, or an off-diagonal block
// whose product with the already-solved x updates the pending rows of b.
// Specs are executed strictly in order.
type segSpec struct {
	kind                       segKind
	rowLo, rowHi, colLo, colHi int
	// depth is the recursion depth the spec was emitted at (0 for panel
	// partitions) — a preprocessing artefact kept for Explain's tree
	// rendering, not serialised.
	depth int
}

func (s segSpec) String() string {
	k := "tri"
	if s.kind == sqSeg {
		k = "sq"
	}
	return fmt.Sprintf("%s[%d:%d)x[%d:%d)", k, s.rowLo, s.rowHi, s.colLo, s.colHi)
}

// buildPlan flattens the chosen partition into the execution order of
// Figure 2's arrows. All three partitions interleave triangles and
// rectangles such that executing specs in order respects every dependency:
// a rectangle's column range is always fully solved before it runs, and a
// triangle's rows have received every update from columns left of it.
func buildPlan(n int, o Options) []segSpec {
	if n == 0 {
		return nil
	}
	switch o.Kind {
	case Recursive:
		var plan []segSpec
		var rec func(lo, hi, depth int)
		rec = func(lo, hi, depth int) {
			size := hi - lo
			if size <= o.MinBlockRows || size < 2 || (o.MaxDepth > 0 && depth >= o.MaxDepth) {
				plan = append(plan, segSpec{triSeg, lo, hi, lo, hi, depth})
				return
			}
			mid := lo + size/2
			rec(lo, mid, depth+1)
			plan = append(plan, segSpec{sqSeg, mid, hi, lo, mid, depth})
			rec(mid, hi, depth+1)
		}
		rec(0, n, 0)
		return plan

	case ColumnBlock:
		nseg := o.NSeg
		if nseg > n {
			nseg = n
		}
		plan := make([]segSpec, 0, 2*nseg-1)
		for si := 0; si < nseg; si++ {
			lo, hi := si*n/nseg, (si+1)*n/nseg
			plan = append(plan, segSpec{triSeg, lo, hi, lo, hi, 0})
			if si != nseg-1 {
				plan = append(plan, segSpec{sqSeg, hi, n, lo, hi, 0})
			}
		}
		return plan

	case RowBlock:
		nseg := o.NSeg
		if nseg > n {
			nseg = n
		}
		plan := make([]segSpec, 0, 2*nseg-1)
		for si := 0; si < nseg; si++ {
			lo, hi := si*n/nseg, (si+1)*n/nseg
			if si != 0 {
				plan = append(plan, segSpec{sqSeg, lo, hi, 0, lo, 0})
			}
			plan = append(plan, segSpec{triSeg, lo, hi, lo, hi, 0})
		}
		return plan
	}
	panic(fmt.Sprintf("block: unknown partition kind %d", o.Kind))
}

// reorderRanges lists, per pass, the diagonal ranges whose internal
// level-set order is applied in that pass (§3.3). For the recursive
// partition this is the recursion tree by depth — the whole matrix first,
// then each half, and so on down to the leaves, matching Figure 3(a→b→c).
// For panel partitions a single whole-matrix pass is used (the ablation
// variant; the paper applies reordering to the recursive structure).
func reorderRanges(n int, o Options) [][][2]int {
	if n == 0 {
		return nil
	}
	if o.Kind != Recursive {
		return [][][2]int{{{0, n}}}
	}
	var passes [][][2]int
	cur := [][2]int{{0, n}}
	for depth := 0; len(cur) > 0; depth++ {
		passes = append(passes, cur)
		var next [][2]int
		for _, r := range cur {
			lo, hi := r[0], r[1]
			size := hi - lo
			if size <= o.MinBlockRows || size < 2 || (o.MaxDepth > 0 && depth >= o.MaxDepth) {
				continue // leaf: no further split, no further pass
			}
			mid := lo + size/2
			next = append(next, [2]int{lo, mid}, [2]int{mid, hi})
		}
		cur = next
	}
	return passes
}

// planChecks validates a plan's structural invariants; tests call it and
// Preprocess asserts it in debug builds. Rules: triangles tile the
// diagonal in ascending order; every square's columns are covered by
// earlier triangles and its rows by later ones.
func planChecks(n int, plan []segSpec) error {
	covered := 0 // diagonal covered so far
	for i, s := range plan {
		switch s.kind {
		case triSeg:
			if s.rowLo != covered || s.colLo != s.rowLo || s.colHi != s.rowHi || s.rowHi <= s.rowLo {
				return fmt.Errorf("block: spec %d (%v): triangle does not extend diagonal at %d", i, s, covered)
			}
			covered = s.rowHi
		case sqSeg:
			if s.colHi > covered {
				return fmt.Errorf("block: spec %d (%v): square reads unsolved columns (covered %d)", i, s, covered)
			}
			if s.rowLo < covered {
				return fmt.Errorf("block: spec %d (%v): square updates already-solved rows (covered %d)", i, s, covered)
			}
			if s.rowHi > n || s.rowLo >= s.rowHi || s.colLo < 0 || s.colLo >= s.colHi {
				return fmt.Errorf("block: spec %d (%v): malformed range", i, s)
			}
		}
	}
	if covered != n {
		return fmt.Errorf("block: plan covers diagonal to %d of %d", covered, n)
	}
	return nil
}
