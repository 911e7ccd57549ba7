package levelset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// paperLikeMatrix builds an 8×8 lower triangular matrix with the level
// structure of the paper's Figure 1 example: level 0 = {0,1,6},
// level 1 = {2,3,4}, level 2 = {5}, level 3 = {7}.
func paperLikeMatrix() *sparse.CSR[float64] {
	b := sparse.NewBuilder[float64](8, 8)
	for i := 0; i < 8; i++ {
		b.Add(i, i, 2)
	}
	b.Add(2, 0, 1) // 2 depends on 0
	b.Add(3, 1, 1) // 3 depends on 1
	b.Add(4, 1, 1) // 4 depends on 1
	b.Add(5, 2, 1) // 5 depends on 2 -> level 2
	b.Add(7, 5, 1) // 7 depends on 5 -> level 3
	b.Add(7, 6, 1) // 7 also depends on 6 (level 0)
	return b.BuildCSR()
}

func TestPaperExampleLevels(t *testing.T) {
	m := paperLikeMatrix()
	in := FromLowerCSR(m)
	if in.NLevels != 4 {
		t.Fatalf("NLevels: got %d want 4", in.NLevels)
	}
	wantLevels := []int{0, 0, 1, 1, 1, 2, 0, 3}
	for i, w := range wantLevels {
		if in.Level[i] != w {
			t.Errorf("Level[%d]: got %d want %d", i, in.Level[i], w)
		}
	}
	if err := in.Validate(m.RowPtr, m.ColIdx); err != nil {
		t.Fatal(err)
	}
	// Level items ascend within a level thanks to stable counting sort.
	if got := in.LevelItem[in.LevelPtr[0]:in.LevelPtr[1]]; got[0] != 0 || got[1] != 1 || got[2] != 6 {
		t.Errorf("level 0 items: got %v want [0 1 6]", got)
	}
	st := in.Stats()
	if st.NLevels != 4 || st.MinWidth != 1 || st.MaxWidth != 3 || st.AvgWidth != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCSRAndCSCAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		n := 1 + lr.Intn(40)
		b := sparse.NewBuilder[float64](n, n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 1)
			for j := 0; j < i; j++ {
				if lr.Float64() < 0.15 {
					b.Add(i, j, 1)
				}
			}
		}
		m := b.BuildCSR()
		a := FromLowerCSR(m)
		c := FromLowerCSC(m.ToCSC())
		if a.NLevels != c.NLevels {
			return false
		}
		for i := 0; i < n; i++ {
			if a.Level[i] != c.Level[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		n := 1 + lr.Intn(60)
		b := sparse.NewBuilder[float64](n, n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 1)
			for j := 0; j < i; j++ {
				if lr.Float64() < 0.1 {
					b.Add(i, j, 1)
				}
			}
		}
		m := b.BuildCSR()
		in := FromLowerCSR(m)
		return in.Validate(m.RowPtr, m.ColIdx) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderIsTopologicalAndKeepsTriangularity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		b := sparse.NewBuilder[float64](n, n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 2)
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.12 {
					b.Add(i, j, 1)
				}
			}
		}
		m := b.BuildCSR()
		in := FromLowerCSR(m)
		order := in.Order()
		pm, err := sparse.PermuteSym(m, order)
		if err != nil {
			t.Fatal(err)
		}
		if !pm.IsLowerTriangular() {
			t.Fatal("level order broke triangularity")
		}
		// Levels must be non-decreasing along the new order.
		inv := sparse.InvertPerm(order)
		for pos := 1; pos < n; pos++ {
			if in.Level[inv[pos]] < in.Level[inv[pos-1]] {
				t.Fatal("levels not sorted along order")
			}
		}
	}
}

func TestDiagonalOnlyMatrix(t *testing.T) {
	m := sparse.Identity[float64](10)
	in := FromLowerCSR(m)
	if in.NLevels != 1 {
		t.Fatalf("NLevels: got %d want 1", in.NLevels)
	}
	st := in.Stats()
	if st.MinWidth != 10 || st.MaxWidth != 10 {
		t.Errorf("stats: %+v", st)
	}
}

func TestFullySerialChain(t *testing.T) {
	n := 16
	b := sparse.NewBuilder[float64](n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
		if i > 0 {
			b.Add(i, i-1, 1)
		}
	}
	in := FromLowerCSR(b.BuildCSR())
	if in.NLevels != n {
		t.Fatalf("NLevels: got %d want %d", in.NLevels, n)
	}
	st := in.Stats()
	if st.MinWidth != 1 || st.MaxWidth != 1 || st.AvgWidth != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEmptyMatrix(t *testing.T) {
	in := FromLowerPattern([]int{0}, nil, 0, 0)
	if in.NLevels != 0 || in.N != 0 {
		t.Fatalf("empty: %+v", in)
	}
	if s := in.Stats(); s.NLevels != 0 {
		t.Fatalf("stats of empty: %+v", s)
	}
}

func TestValidateRejectsBrokenInfo(t *testing.T) {
	m := paperLikeMatrix()
	in := FromLowerCSR(m)
	in.Level[7] = 1 // lie about the last component's level
	if err := in.Validate(m.RowPtr, m.ColIdx); err == nil {
		t.Fatal("Validate accepted inconsistent levels")
	}
}
