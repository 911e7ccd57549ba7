package block

import (
	"fmt"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

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
	// partitions) and stop, on a triangle, the rule that ended the
	// recursion there — preprocessing artefacts kept for Explain, not
	// serialised.
	depth int
	stop  stopReason
	// feats, on a triangle the walk sent to the serial kernel
	// (stopSerial), are the features it was decided on. Zero elsewhere;
	// not serialised.
	feats adapt.TriFeatures
}

func (s segSpec) String() string {
	k := "tri"
	if s.kind == sqSeg {
		k = "sq"
	}
	return fmt.Sprintf("%s[%d:%d)x[%d:%d)", k, s.rowLo, s.rowHi, s.colLo, s.colHi)
}

// stopReason names the rule that made a range of the recursive partition
// a leaf.
type stopReason uint8

const (
	// stopNA: no recursion decided the leaf — a panel partition, or a
	// solver reloaded from a saved plan.
	stopNA stopReason = iota
	// stopSize: at most MinBlockRows rows, or fewer than 2. With the
	// serial floor on, a range keeps it only when Algorithm 7 sends it to
	// a dependent parallel kernel.
	stopSize
	// stopDepth: MaxDepth reached; with the serial floor on, as stopSize.
	stopDepth
	// stopSerial: with the serial floor on, Algorithm 7 sends the range
	// to the serial kernel.
	stopSerial
	// stopOneLevel: with the serial floor on, the range has one level, so
	// Algorithm 7 sends it to the completely-parallel kernel.
	stopOneLevel
)

func (r stopReason) String() string {
	switch r {
	case stopSize:
		return "size"
	case stopDepth:
		return "depth"
	case stopSerial:
		return "serial"
	case stopOneLevel:
		return "one-level"
	}
	return "n/a"
}

// rangeNode is one diagonal range of the recursion tree. A leaf has
// left == 0 (the root sits at index 0, so no child can); a split range's
// halves are tree[left] and tree[left+1]. A serial leaf carries the
// features the walk decided it on (segSpec's feats).
type rangeNode struct {
	lo, hi, depth int
	left          int
	stop          stopReason
	feats         adapt.TriFeatures
}

// walkTree is the one walk over the recursion tree, coarsest range first,
// matching Figure 3(a→b→c). It returns the matrix in plan order (l itself
// when no reordering moved a row), the applied permutation (nil when
// none) and the tree in breadth-first order. Each range is levelled
// once, in place, then reordered by its level order when o.Reorder is
// set, and decided: a leaf when the size rule says so (at most
// MinBlockRows rows, fewer than 2, or MaxDepth reached) or, with the
// serial floor on, when Algorithm 7 sends it to the serial or
// completely-parallel kernel; otherwise it splits in half. With the floor
// on, Algorithm 7's verdict names the stop of a range the size rule or
// MaxDepth stopped too, so every range it sends to serial is a stopSerial
// leaf. A range's level count and strictly-lower count do not change
// under its own level-order permutation, so a decision made before the
// reorder still holds after it. All ranges of one depth share one
// permutation pass.
// Panel partitions do not recurse: their walk is the whole-matrix pass
// alone (the ablation variant; the paper reorders the recursive
// structure).
func walkTree[T sparse.Float](l *sparse.CSR[T], o Options) (*sparse.CSR[T], []int, []rangeNode, error) {
	n := l.Rows
	if n == 0 {
		return l, nil, nil, nil
	}
	recursive := o.Kind == Recursive
	aware := recursive && o.floorOn()
	cur := l
	var perm []int
	tree := []rangeNode{{lo: 0, hi: n}}
	for first := 0; first < len(tree); {
		last := len(tree)
		var passPerm []int
		changed := false
		for i := first; i < last; i++ {
			r := tree[i]
			size := r.hi - r.lo
			switch {
			case size <= o.MinBlockRows || size < 2:
				r.stop = stopSize
			case o.MaxDepth > 0 && r.depth >= o.MaxDepth:
				r.stop = stopDepth
			}
			// With the floor on, Algorithm 7 decides every range, those
			// the size rule or MaxDepth stops too, so each one it sends to
			// serial is a stop=serial gather leaf like any other.
			decide := aware
			if o.Reorder || decide {
				info := levelset.FromLowerPattern(cur.RowPtr, cur.ColIdx, r.lo, r.hi)
				if decide {
					f := adapt.NewTriFeatures(size, adapt.LeafCounts(cur.RowPtr, cur.ColIdx, r.lo, r.hi), info.NLevels)
					switch o.Thresholds.SelectTri(f) {
					case kernels.TriSerial:
						r.stop = stopSerial
						r.feats = f
					case kernels.TriCompletelyParallel:
						r.stop = stopOneLevel
					}
				}
				if o.Reorder {
					if passPerm == nil {
						passPerm = identityPerm(n)
					}
					for k, p := range info.Order() {
						passPerm[r.lo+k] = r.lo + p
						changed = changed || p != k
					}
				}
			}
			if recursive && r.stop == stopNA {
				mid := r.lo + size/2
				r.left = len(tree)
				tree = append(tree, rangeNode{lo: r.lo, hi: mid, depth: r.depth + 1},
					rangeNode{lo: mid, hi: r.hi, depth: r.depth + 1})
			}
			tree[i] = r
		}
		first = last
		if !changed {
			continue
		}
		var err error
		if cur, err = sparse.PermuteSym(cur, passPerm); err != nil {
			return nil, nil, nil, fmt.Errorf("block: reorder pass failed: %w", err)
		}
		if perm == nil {
			perm = passPerm
		} else {
			perm = sparse.ComposePerm(perm, passPerm)
		}
	}
	return cur, perm, tree, nil
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// planOf flattens the walked partition into the execution order of
// Figure 2's arrows: a rectangle's column range is always fully solved
// before it runs, and a triangle's rows have received every update from
// columns left of it. The recursive plan visits the tree in order: left
// half, the square below it, right half. The panel plans interleave each
// panel's triangle with its rectangle.
func planOf(n int, o Options, tree []rangeNode) []segSpec {
	if n == 0 {
		return nil
	}
	switch o.Kind {
	case Recursive:
		var plan []segSpec
		var emit func(i int)
		emit = func(i int) {
			r := tree[i]
			if r.left == 0 {
				plan = append(plan, segSpec{kind: triSeg, rowLo: r.lo, rowHi: r.hi, colLo: r.lo, colHi: r.hi,
					depth: r.depth, stop: r.stop, feats: r.feats})
				return
			}
			mid := tree[r.left].hi
			emit(r.left)
			plan = append(plan, segSpec{kind: sqSeg, rowLo: mid, rowHi: r.hi, colLo: r.lo, colHi: mid, depth: r.depth})
			emit(r.left + 1)
		}
		emit(0)
		return plan

	case ColumnBlock:
		nseg := min(o.NSeg, n)
		plan := make([]segSpec, 0, 2*nseg-1)
		for si := 0; si < nseg; si++ {
			lo, hi := si*n/nseg, (si+1)*n/nseg
			plan = append(plan, segSpec{kind: triSeg, rowLo: lo, rowHi: hi, colLo: lo, colHi: hi})
			if si != nseg-1 {
				plan = append(plan, segSpec{kind: sqSeg, rowLo: hi, rowHi: n, colLo: lo, colHi: hi})
			}
		}
		return plan

	case RowBlock:
		nseg := min(o.NSeg, n)
		plan := make([]segSpec, 0, 2*nseg-1)
		for si := 0; si < nseg; si++ {
			lo, hi := si*n/nseg, (si+1)*n/nseg
			if si != 0 {
				plan = append(plan, segSpec{kind: sqSeg, rowLo: lo, rowHi: hi, colLo: 0, colHi: lo})
			}
			plan = append(plan, segSpec{kind: triSeg, rowLo: lo, rowHi: hi, colLo: lo, colHi: hi})
		}
		return plan
	}
	panic(fmt.Sprintf("block: unknown partition kind %d", o.Kind))
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
