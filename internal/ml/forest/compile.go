package forest

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"strudel/internal/ml"
)

// Compiled is a forest flattened for the prediction hot path. Every tree's
// nodes are concatenated into one contiguous node array — a flat slab of
// 16-byte packed records indexed by a global node id — and all leaf
// probability vectors that are not one-hot are pooled into a single shared
// slab, deduplicated, and referenced by offset. The layout carries zero
// per-node pointers: traversal is integer index chasing through one flat
// array, so the whole ensemble's working set is a few cache-resident
// slices instead of thousands of heap objects.
//
// Each packed record folds the node's feature index and child/leaf payload
// into one word next to its threshold, and the flattener renumbers nodes
// so every internal node's children are adjacent (right = left+1). A walk
// step therefore reads exactly one 16-byte record.
//
// Leaves come in two encodings. A one-hot leaf — exactly 1.0 in one class
// and +0 in every other, which is what nearly every leaf of a fully grown
// tree is — stores its class in the record and is accumulated with a
// single add of 1, no slab load. Every other leaf stores its slab offset.
//
// A Compiled value is safe for concurrent use; its only mutable state is a
// pool of walk scratch buffers. Its predictions are float-identical to the
// source forest's: every row meets one leaf per tree in ascending tree
// order, adds exactly what the pointer walk adds, and is divided by the
// same count as Forest.PredictProba.
type Compiled struct {
	classes int
	feats   int
	trees   int
	// roots[t] is the flat index of tree t's root node.
	roots []int32
	// nodes is the flattened node slab (see packedNode).
	nodes []packedNode
	// probs is the pooled leaf-probability slab: a slab leaf's vector is
	// probs[off : off+classes] where off is the leaf record's low word.
	// Identical vectors are stored once; one-hot leaves are not stored.
	probs []float64
	// maxDepth is the longest root-to-leaf path, in edges, over all trees.
	// It bounds the partition walk's DFS stack at maxDepth+1 frames.
	maxDepth int
	// scratch pools *walkScratch buffers sized at Compile time, so the
	// matrix kernel allocates nothing per call once warm.
	scratch sync.Pool
}

// packedNode is one flattened tree node. bits holds the split feature in
// the high 32 bits (or a leaf sentinel) and in the low 32 bits the flat
// index of the left child — the right child is always left+1 by
// construction — or, for a leaf, its slab offset (leafSlab) or its class
// (leafOneHot). thresh is the split threshold (unused for leaves).
type packedNode struct {
	bits   uint64
	thresh float64
}

func packNode(feature, payload int32) uint64 {
	return uint64(uint32(feature))<<32 | uint64(uint32(payload))
}

// Leaf sentinels in the packed feature word. Any negative feature is a
// leaf, mirroring the Feature == -1 convention of tree.Node.
const (
	// leafSlab: the low word is the leaf vector's offset into probs.
	leafSlab = int32(-1)
	// leafOneHot: the leaf is 1.0 in the class held in the low word and
	// +0 elsewhere.
	leafOneHot = int32(-2)
)

// oneHotClass reports whether p is exactly 1.0 in one class and +0 in all
// others, comparing bit patterns: a −0 entry disqualifies the leaf (it
// keeps the slab path), and no tolerance ever applies.
func oneHotClass(p []float64) (int32, bool) {
	cls := int32(-1)
	for j, v := range p {
		switch math.Float64bits(v) {
		case 0:
		case math.Float64bits(1):
			if cls >= 0 {
				return -1, false
			}
			cls = int32(j)
		default:
			return -1, false
		}
	}
	return cls, cls >= 0
}

// Compile flattens the forest into its packed prediction form. The forest
// is validated first — the flattener trusts node links and leaf shapes —
// so a corrupt ensemble fails here with a typed ErrInvalidModel error
// rather than compiling into an engine that walks out of bounds.
func (f *Forest) Compile() (*Compiled, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("forest: compile: %w", err)
	}
	total := 0
	for _, t := range f.Trees {
		total += len(t.Nodes)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("forest: compile: %d nodes exceed the flat index range", total)
	}
	c := &Compiled{
		classes: f.NumClasses,
		feats:   f.NumFeats,
		trees:   len(f.Trees),
		roots:   make([]int32, len(f.Trees)),
		nodes:   make([]packedNode, total),
	}
	// Leaf probability pooling: the dedup map only answers "seen before?";
	// slab layout is decided by deterministic node order, so compiling the
	// same forest always produces the same arrays.
	pool := make(map[string]int32)
	key := make([]byte, 8*f.NumClasses)
	base := int32(0)
	for ti, t := range f.Trees {
		c.roots[ti] = base
		// order maps the tree's original node indices to flat slots. Nodes
		// are renumbered breadth-first with sibling pairs placed adjacently,
		// which is what lets a record store only the left-child index.
		order := make([]int32, len(t.Nodes))
		// depth[i] is original node i's distance from the root, in edges.
		depth := make([]int32, len(t.Nodes))
		// BFS pair allocation: slot 0 is the root; every dequeued internal
		// node claims the next two slots for its children.
		queue := make([]int32, 0, len(t.Nodes))
		queue = append(queue, 0)
		order[0] = 0
		next := int32(1)
		for qi := 0; qi < len(queue); qi++ {
			oi := queue[qi]
			n := &t.Nodes[oi]
			if n.Feature < 0 {
				c.maxDepth = max(c.maxDepth, int(depth[oi]))
				continue
			}
			order[n.Left] = next
			order[n.Right] = next + 1
			next += 2
			depth[n.Left] = depth[oi] + 1
			depth[n.Right] = depth[oi] + 1
			queue = append(queue, n.Left, n.Right)
		}
		for qi := 0; qi < len(queue); qi++ {
			oi := queue[qi]
			n := &t.Nodes[oi]
			i := base + order[oi]
			if n.Feature < 0 {
				if cls, ok := oneHotClass(n.Probs); ok {
					c.nodes[i] = packedNode{bits: packNode(leafOneHot, cls)}
					continue
				}
				for j, p := range n.Probs {
					binary.LittleEndian.PutUint64(key[8*j:], math.Float64bits(p))
				}
				off, ok := pool[string(key)]
				if !ok {
					off = int32(len(c.probs))
					pool[string(key)] = off
					c.probs = append(c.probs, n.Probs...)
				}
				c.nodes[i] = packedNode{bits: packNode(leafSlab, off)}
				continue
			}
			c.nodes[i] = packedNode{
				bits:   packNode(int32(n.Feature), base+order[n.Left]),
				thresh: n.Threshold,
			}
		}
		base += int32(len(t.Nodes))
	}
	return c, nil
}

// Classes returns the number of classes.
func (c *Compiled) Classes() int { return c.classes }

// NumFeatures returns the feature-vector width the forest was trained on.
func (c *Compiled) NumFeatures() int { return c.feats }

// NumTrees returns the ensemble size.
func (c *Compiled) NumTrees() int { return c.trees }

// NumNodes returns the total node count across all flattened trees.
func (c *Compiled) NumNodes() int { return len(c.nodes) }

// SlabLen returns the pooled probability slab length — with deduplication
// this is typically far below leaves×classes.
func (c *Compiled) SlabLen() int { return len(c.probs) }

// PredictProba returns the class probability vector for one row, averaged
// over all trees. Float-identical to Forest.PredictProba.
func (c *Compiled) PredictProba(x []float64) []float64 {
	out := make([]float64, c.classes)
	for _, root := range c.roots {
		c.walkRow(int(root), x, out)
	}
	n := float64(c.trees)
	for j := range out {
		out[j] /= n
	}
	return out
}

// walkRow walks one row from flat node ni down to its leaf and adds the
// leaf into acc. Like the pointer walk it goes left when x[f] <= thresh
// and right otherwise, so a NaN feature goes right.
func (c *Compiled) walkRow(ni int, x []float64, acc []float64) {
	nodes := c.nodes
	for uint(ni) < uint(len(nodes)) { // always true: Compile validates links
		nd := nodes[ni]
		f := int(int32(nd.bits >> 32))
		if f < 0 {
			c.addLeaf(nd.bits, acc)
			return
		}
		if uint(f) >= uint(len(x)) { // false unless the row is narrower than the forest
			return
		}
		ni = int(uint32(nd.bits))
		if !(x[f] <= nd.thresh) {
			ni++
		}
	}
}

// addLeaf adds the leaf encoded in bits into one row's accumulator. A
// one-hot leaf adds 1 to its class and nothing else: the skipped +0 adds
// are exact no-ops because accumulators start at +0 and only non-negative
// values are ever added to them.
func (c *Compiled) addLeaf(bits uint64, acc []float64) {
	v := uint32(bits)
	if int32(bits>>32) == leafOneHot {
		if uint(v) < uint(len(acc)) {
			acc[v]++
		}
		return
	}
	p := c.probs[v : int(v)+c.classes]
	p = p[:len(acc)]
	for j := range acc {
		acc[j] += p[j]
	}
}

// PredictProbaMatrix classifies every row of the staged feature block x
// into the caller-owned slab out (length ≥ x.Rows*Classes()), fanning
// contiguous row chunks across GOMAXPROCS goroutines. Chunks write disjoint
// output regions and per-row arithmetic never crosses rows, so the slab is
// bit-identical at every parallelism level.
func (c *Compiled) PredictProbaMatrix(x *ml.Matrix, out []float64) {
	runMatrix(c, x, out)
}

const (
	// blockRows is the partition walk's block: up to this many rows go
	// down each tree together. Its two index buffers (8 KiB) and the block's
	// rows stay cache-resident while all trees are walked.
	blockRows = 1024
	// plainWalkRows is the subset size at or below which a row set leaves
	// the partition walk and finishes each row with walkRow.
	plainWalkRows = 2
)

// identityRows is the block's initial row order, 0..blockRows-1, which the
// root of every tree partitions from.
var identityRows = func() []int32 {
	ids := make([]int32, blockRows)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}()

// walkScratch is the partition walk's working memory: two ping-pong
// row-index buffers and the DFS stack.
type walkScratch struct {
	bufs  [3][]int32 // [0] is identityRows; [1] and [2] alternate by depth
	stack []span
}

// span is a DFS frame: the rows bufs[buf][lo:hi] have reached flat node
// node of the tree being walked.
type span struct {
	node, lo, hi, buf int32
}

// getScratch returns pooled walk buffers, allocating a set sized from the
// compiled forest only when the pool is empty.
func (c *Compiled) getScratch() *walkScratch {
	if s, ok := c.scratch.Get().(*walkScratch); ok {
		return s
	}
	return &walkScratch{
		bufs:  [3][]int32{identityRows, make([]int32, blockRows), make([]int32, blockRows)},
		stack: make([]span, 0, c.maxDepth+1),
	}
}

// predictRows is the serial kernel over rows [lo, hi): a tree-major
// partition walk. For each block of up to blockRows rows and each tree in
// ascending index order, the block's row indices are split down the tree
// one node at a time (see partition), and every row reaching a leaf gets
// that leaf added to its accumulator. Each row therefore meets exactly the
// leaves the single-row walk would, in the same tree order, and the final
// divide uses the same ensemble count, so the output is float-identical to
// Forest.PredictProba.
func (c *Compiled) predictRows(x *ml.Matrix, out []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	k := c.classes
	o := out[lo*k : hi*k]
	clear(o)
	s := c.getScratch()
	for b := lo; b < hi; b += blockRows {
		e := min(b+blockRows, hi)
		rows := x.Data[b*x.Cols : e*x.Cols]
		acc := out[b*k : e*k]
		for _, root := range c.roots {
			c.walkTree(s, root, rows, e-b, x.Cols, acc)
		}
	}
	c.scratch.Put(s)
	n := float64(c.trees)
	for j := range o {
		o[j] /= n
	}
}

// walkTree sends the block's n rows (row-major, cols wide) down the tree
// rooted at flat node root, depth first. At an internal node the node's
// rows are partitioned into the next index buffer — left rows from the
// front, right rows from the back — and the walk continues with the left
// child while the right child waits on the stack, so the stack holds at
// most one frame per level plus the root.
func (c *Compiled) walkTree(s *walkScratch, root int32, rows []float64, n, cols int, acc []float64) {
	k := c.classes
	nodes := c.nodes
	stack := append(s.stack[:0], span{node: root, hi: int32(n)})
	for len(stack) > 0 {
		sp := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			ids := s.bufs[sp.buf][sp.lo:sp.hi]
			nd := nodes[sp.node]
			f := int(int32(nd.bits >> 32))
			if f < 0 {
				c.addLeafRows(nd.bits, ids, acc)
				break
			}
			if len(ids) <= plainWalkRows {
				for _, r := range ids {
					c.walkRow(int(sp.node), rows[int(r)*cols:int(r)*cols+cols], acc[int(r)*k:int(r)*k+k])
				}
				break
			}
			if f >= cols { // unreachable unless the block is narrower than the forest
				break
			}
			dst := 1 + sp.buf&1
			nl := partition(ids, s.bufs[dst][sp.lo:sp.hi], rows, cols, f, nd.thresh)
			left := int32(uint32(nd.bits))
			mid := sp.lo + nl
			switch {
			case mid == sp.lo:
				sp = span{node: left + 1, lo: sp.lo, hi: sp.hi, buf: dst}
			case mid == sp.hi:
				sp = span{node: left, lo: sp.lo, hi: sp.hi, buf: dst}
			default:
				stack = append(stack, span{node: left + 1, lo: mid, hi: sp.hi, buf: dst})
				sp = span{node: left, lo: sp.lo, hi: mid, buf: dst}
			}
		}
	}
}

// partition writes the row indices of src into dst, those with
// x[r][f] <= thresh packed from the front and the rest from the back, and
// returns how many went left. Each index is written to both ends and only
// the matching cursor advances, so the loop has no data-dependent branch.
func partition(src, dst []int32, rows []float64, cols, f int, thresh float64) int32 {
	dst = dst[:len(src)]
	wl, wr := 0, len(dst)-1
	for _, r := range src {
		right := 0
		if !(rows[int(r)*cols+f] <= thresh) {
			right = 1
		}
		dst[wl] = r
		dst[wr] = r
		wl += 1 - right
		wr -= right
	}
	return int32(wl)
}

// addLeafRows adds the leaf encoded in bits into the accumulator of every
// row in ids (see addLeaf).
func (c *Compiled) addLeafRows(bits uint64, ids []int32, acc []float64) {
	k := c.classes
	v := int(uint32(bits))
	if int32(bits>>32) == leafOneHot {
		for _, r := range ids {
			acc[int(r)*k+v]++
		}
		return
	}
	p := c.probs[v : v+k]
	for _, r := range ids {
		a := acc[int(r)*k : int(r)*k+k]
		for j := range a {
			a[j] += p[j]
		}
	}
}
