package forest

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"strudel/internal/ml"
	"strudel/internal/ml/tree"
)

// The differential tests below pin the compiled partition-walk kernel to
// the pointer engine bit for bit: every row count around the block size
// and the plain-walk cutoff, inputs that sit on the comparison's edge cases
// (NaN, ±Inf, −0, a value exactly equal to a threshold), trees whose root
// is a leaf, and leaves that are and are not one-hot.

// kernelRowCounts cover the empty block, the ≤2-row plain-walk cutoff and
// the 1024-row block boundary from both sides.
var kernelRowCounts = []int{0, 1, 2, 3, 1023, 1024, 1025, 2500}

// edgeThresholds are the split thresholds the generated trees draw from;
// edgeValues adds the non-finite and signed-zero inputs. Rows drawn from
// both land exactly on thresholds often.
var (
	edgeThresholds = []float64{-2, -0.5, math.Copysign(0, -1), 0, 0.5, 1, 3}
	edgeValues     = append([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}, edgeThresholds...)
)

// genTree builds a random valid tree in pre-order. Leaves are one-hot,
// mixed, or one-hot with −0 in place of some +0 entries (mixedShare and
// negZeroShare set the odds), and a node at depth 0 becomes a leaf with
// probability leafAtRoot.
func genTree(rng *rand.Rand, feats, classes, maxDepth int, leafAtRoot, mixedShare, negZeroShare float64) *tree.Tree {
	t := &tree.Tree{NumClasses: classes}
	var grow func(depth int) int32
	grow = func(depth int) int32 {
		i := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, tree.Node{})
		leafOdds := 0.25
		if depth == 0 {
			leafOdds = leafAtRoot
		}
		if depth >= maxDepth || rng.Float64() < leafOdds {
			t.Nodes[i] = tree.Node{Feature: -1, Probs: genLeaf(rng, classes, mixedShare, negZeroShare)}
			return i
		}
		n := tree.Node{Feature: rng.Intn(feats), Threshold: edgeThresholds[rng.Intn(len(edgeThresholds))]}
		n.Left = grow(depth + 1)
		n.Right = grow(depth + 1)
		t.Nodes[i] = n
		return i
	}
	grow(0)
	return t
}

func genLeaf(rng *rand.Rand, classes int, mixedShare, negZeroShare float64) []float64 {
	p := make([]float64, classes)
	switch u := rng.Float64(); {
	case u < mixedShare && classes > 1:
		sum := 0.0
		for j := range p {
			p[j] = float64(rng.Intn(4))
			sum += p[j]
		}
		if sum == 0 {
			p[0], sum = 1, 1
		}
		for j := range p {
			p[j] /= sum
		}
	default:
		p[rng.Intn(classes)] = 1
		if u < mixedShare+negZeroShare {
			for j := range p {
				if p[j] == 0 {
					p[j] = math.Copysign(0, -1)
				}
			}
		}
	}
	return p
}

func genForest(rng *rand.Rand, trees, feats, classes, maxDepth int, leafAtRoot, mixedShare, negZeroShare float64) *Forest {
	f := &Forest{NumClasses: classes, NumFeats: feats}
	for i := 0; i < trees; i++ {
		f.Trees = append(f.Trees, genTree(rng, feats, classes, maxDepth, leafAtRoot, mixedShare, negZeroShare))
	}
	return f
}

// edgeMatrix stages rows whose values are drawn from edgeValues.
func edgeMatrix(rng *rand.Rand, rows, feats int) *ml.Matrix {
	m := ml.NewMatrix(rows, feats)
	for i := range m.Data {
		m.Data[i] = edgeValues[rng.Intn(len(edgeValues))]
	}
	return m
}

// assertMatchesPointer checks PredictProbaMatrix and the single-row
// PredictProba of c against the pointer engine's PredictProba, bit for bit.
func assertMatchesPointer(t testing.TB, f *Forest, c *Compiled, m *ml.Matrix) {
	t.Helper()
	k := f.NumClasses
	out := make([]float64, m.Rows*k)
	for i := range out {
		out[i] = math.NaN() // every slot must be overwritten
	}
	c.PredictProbaMatrix(m, out)
	for r := 0; r < m.Rows; r++ {
		want := f.PredictProba(m.Row(r))
		if got := out[r*k : (r+1)*k]; !bitsEqual(got, want) {
			t.Fatalf("%d rows, row %d %v: matrix kernel %v != pointer %v", m.Rows, r, m.Row(r), got, want)
		}
		if got := c.PredictProba(m.Row(r)); !bitsEqual(got, want) {
			t.Fatalf("%d rows, row %d %v: compiled PredictProba %v != pointer %v", m.Rows, r, m.Row(r), got, want)
		}
	}
}

// withProcs runs fn at GOMAXPROCS 1 and NumCPU (at least 2, so the
// parallel fan-out runs even on a one-CPU machine).
func withProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, max(2, runtime.NumCPU())} {
		prev := runtime.GOMAXPROCS(procs)
		t.Run("procs="+strconv.Itoa(procs), fn)
		runtime.GOMAXPROCS(prev)
	}
}

func TestCompiledKernelMatchesPointer(t *testing.T) {
	trainedOneHot, _ := trainedForest(t, 17, 4, 60, 12)
	X, y := blobs(19, 3, 80)
	trainedMixed, err := Fit(X, y, 3, Options{NumTrees: 12, Seed: 19, MinSamplesLeaf: 7, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	forests := []struct {
		name string
		f    *Forest
	}{
		{"trained-pure", trainedOneHot},
		{"trained-mixed", trainedMixed},
		{"edge-onehot", genForest(rand.New(rand.NewSource(1)), 9, 3, 4, 9, 0.2, 0, 0)},
		{"edge-mixed", genForest(rand.New(rand.NewSource(2)), 9, 3, 4, 9, 0.2, 0.4, 0.2)},
		{"root-leaves", genForest(rand.New(rand.NewSource(3)), 6, 2, 3, 3, 0.5, 0.3, 0.2)},
	}
	withProcs(t, func(t *testing.T) {
		for _, fc := range forests {
			c, err := fc.f.Compile()
			if err != nil {
				t.Fatalf("%s: %v", fc.name, err)
			}
			rng := rand.New(rand.NewSource(5))
			for _, rows := range kernelRowCounts {
				assertMatchesPointer(t, fc.f, c, edgeMatrix(rng, rows, fc.f.NumFeats))
			}
			if fc.name == "trained-pure" || fc.name == "trained-mixed" {
				// Trained thresholds are midpoints of training values:
				// score the training rows and the thresholds themselves.
				m := ml.NewMatrix(len(X), fc.f.NumFeats)
				m.FillRows(X)
				assertMatchesPointer(t, fc.f, c, m)
				assertMatchesPointer(t, fc.f, c, thresholdMatrix(fc.f))
			}
		}
	})
}

// thresholdMatrix stages one row per internal node whose every feature is
// that node's threshold, so the split compares exactly equal values.
func thresholdMatrix(f *Forest) *ml.Matrix {
	var rows [][]float64
	for _, t := range f.Trees {
		for _, n := range t.Nodes {
			if n.Feature < 0 {
				continue
			}
			row := make([]float64, f.NumFeats)
			for j := range row {
				row[j] = n.Threshold
			}
			rows = append(rows, row)
		}
	}
	m := ml.NewMatrix(len(rows), f.NumFeats)
	m.FillRows(rows)
	return m
}

// TestCompileLeafEncoding pins which leaves take the one-hot encoding: only
// exactly 1.0 in one class with +0 elsewhere. Mixed leaves and a one-hot
// leaf holding a −0 entry stay on the slab path.
func TestCompileLeafEncoding(t *testing.T) {
	negZero := math.Copysign(0, -1)
	leaf := func(p ...float64) tree.Node { return tree.Node{Feature: -1, Probs: p} }
	cases := []struct {
		probs  []float64
		oneHot bool
		class  int32
	}{
		{[]float64{0, 1, 0}, true, 1},
		{[]float64{1, 0, 0}, true, 0},
		{[]float64{0, 0, 1}, true, 2},
		{[]float64{negZero, 1, 0}, false, 0},
		{[]float64{0.5, 0.5, 0}, false, 0},
		{[]float64{0.25, 0.75, 0}, false, 0},
	}
	for _, tc := range cases {
		f := &Forest{
			NumClasses: 3, NumFeats: 1,
			Trees: []*tree.Tree{{NumClasses: 3, Nodes: []tree.Node{leaf(tc.probs...)}}},
		}
		c, err := f.Compile()
		if err != nil {
			t.Fatal(err)
		}
		bits := c.nodes[c.roots[0]].bits
		gotOneHot := int32(bits>>32) == leafOneHot
		if gotOneHot != tc.oneHot || (tc.oneHot && int32(uint32(bits)) != tc.class) {
			t.Errorf("leaf %v: encoded one-hot=%v class=%d, want one-hot=%v class=%d",
				tc.probs, gotOneHot, int32(uint32(bits)), tc.oneHot, tc.class)
		}
		if !tc.oneHot && c.SlabLen() != 3 {
			t.Errorf("leaf %v: slab holds %d floats, want the leaf's 3", tc.probs, c.SlabLen())
		}
		x := []float64{0}
		if got, want := c.PredictProba(x), f.PredictProba(x); !bitsEqual(got, want) {
			t.Errorf("leaf %v: compiled %v != pointer %v", tc.probs, got, want)
		}
	}
}

// TestCompiledMaxDepth checks the depth the DFS stack is sized from.
func TestCompiledMaxDepth(t *testing.T) {
	f := genForest(rand.New(rand.NewSource(8)), 7, 3, 3, 11, 0, 0.2, 0)
	want := 0
	for _, tr := range f.Trees {
		want = max(want, tr.Depth())
	}
	c, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.maxDepth != want {
		t.Errorf("compiled maxDepth %d, want the deepest tree's %d", c.maxDepth, want)
	}
}

// chainForest is a caterpillar tree of the given depth: every right child
// is a leaf, so each row set walks the whole left spine.
func chainForest(depth int) *Forest {
	t := &tree.Tree{NumClasses: 2}
	for d := 0; d < depth; d++ {
		i := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes,
			tree.Node{Feature: 0, Threshold: float64(depth - d), Left: i + 2, Right: i + 1},
			tree.Node{Feature: -1, Probs: []float64{float64(d % 2), float64(1 - d%2)}})
	}
	t.Nodes = append(t.Nodes, tree.Node{Feature: -1, Probs: []float64{0.5, 0.5}})
	return &Forest{NumClasses: 2, NumFeats: 1, Trees: []*tree.Tree{t, t}}
}

// TestCompiledMatrixNoAlloc pins the serial kernel at zero allocations per
// call, including on a 60-deep caterpillar tree, where every level defers
// a right child and the DFS stack fills to its max-depth bound. The tree
// walk is checked on a held scratch; the whole PredictProbaMatrix call is
// checked with its scratch coming from the warm pool, except under the
// race detector, whose runtime drops a random share of sync.Pool puts.
func TestCompiledMatrixNoAlloc(t *testing.T) {
	f, X := trainedForest(t, 23, 3, 40, 10)
	deep := chainForest(60)
	for _, tc := range []struct {
		name string
		f    *Forest
		rows int
	}{{"trained", f, 2500}, {"chain", deep, 1000}} {
		c, err := tc.f.Compile()
		if err != nil {
			t.Fatal(err)
		}
		m := ml.NewMatrix(tc.rows, tc.f.NumFeats)
		for r := 0; r < tc.rows; r++ {
			if tc.f == f {
				m.SetRow(r, X[r%len(X)])
			} else {
				m.Set(r, 0, float64(r%70))
			}
		}
		out := make([]float64, tc.rows*tc.f.NumClasses)
		s := c.getScratch()
		walk := func() {
			for _, root := range c.roots {
				c.walkTree(s, root, m.Data[:min(tc.rows, blockRows)*m.Cols], min(tc.rows, blockRows), m.Cols, out)
			}
		}
		if allocs := testing.AllocsPerRun(50, walk); allocs != 0 {
			t.Errorf("%s: walkTree allocates %v times per call, want 0", tc.name, allocs)
		}
		// AllocsPerRun runs at GOMAXPROCS 1, so this is the serial path.
		if allocs := testing.AllocsPerRun(50, func() { c.PredictProbaMatrix(m, out) }); allocs != 0 && !raceEnabled {
			t.Errorf("%s: PredictProbaMatrix allocates %v times per call, want 0", tc.name, allocs)
		}
		assertMatchesPointer(t, tc.f, c, m)
	}
}

// TestCompiledNarrowBlock keeps the row walk's guard: a feature block
// narrower than the forest scores without reading past a row, and agrees
// with the single-row walk of the same short rows.
func TestCompiledNarrowBlock(t *testing.T) {
	f := genForest(rand.New(rand.NewSource(4)), 5, 4, 3, 6, 0, 0.3, 0)
	c, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	m := edgeMatrix(rng, 40, 2)
	out := make([]float64, m.Rows*3)
	c.PredictProbaMatrix(m, out)
	for r := 0; r < m.Rows; r++ {
		if got, want := out[r*3:(r+1)*3], c.PredictProba(m.Row(r)); !bitsEqual(got, want) {
			t.Fatalf("row %d: matrix %v != row walk %v", r, got, want)
		}
	}
}

// FuzzCompiledMatrix differentially fuzzes the compiled kernel against the
// pointer engine: the seed shapes a random small forest, n sets the row
// count (spanning the block boundary), and each byte of raw picks one
// feature value from the edge palette or, for bytes past it, a value
// derived from the byte itself.
func FuzzCompiledMatrix(f *testing.F) {
	f.Add(int64(1), uint16(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(2), uint16(1025), []byte{})
	f.Add(int64(3), uint16(2), []byte{0, 0, 0, 200})
	f.Add(int64(4), uint16(1024), []byte{255, 7, 3})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		feats, classes := 1+rng.Intn(5), 1+rng.Intn(5)
		fo := genForest(rng, 1+rng.Intn(8), feats, classes, rng.Intn(13), rng.Float64()*0.5, rng.Float64(), rng.Float64()*0.3)
		c, err := fo.Compile()
		if err != nil {
			t.Fatalf("generated forest does not compile: %v", err)
		}
		rows := int(n % 2600)
		m := ml.NewMatrix(rows, feats)
		for i := range m.Data {
			if len(raw) == 0 {
				m.Data[i] = edgeValues[rng.Intn(len(edgeValues))]
				continue
			}
			b := raw[i%len(raw)]
			if int(b) < len(edgeValues) {
				m.Data[i] = edgeValues[b]
			} else {
				m.Data[i] = float64(int(b)-128) / 16
			}
		}
		assertMatchesPointer(t, fo, c, m)
	})
}
