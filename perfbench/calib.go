package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machine this benchmark was built on, a shared 2-vCPU virtual
// machine, changed speed by up to 1.7× between runs minutes apart, and
// memory-heavy code (training, annotation) changed most. A fixed
// reference kernel timed in the same run changes with it, so every gated
// rate is scaled by the kernel's median time over the run against
// calibrationRefMs, and setup_s by the inverse. The kernel is this file's
// own code, so no change to the program moves it. It grows a decision
// tree on fixed random data (sorting, Gini scans, allocation) and walks a
// 32 MiB tree array (cache and memory latency). It runs in a child
// process so its memory never shares a heap, or a garbage collector, with
// the measured code.
const calibrationRefMs = 45

const (
	refRows     = 3000
	refFeatures = 16
	refClasses  = 3
	refWalkTree = 16
	refDepth    = 17 // levels of each walk tree: 128Ki nodes
	refWalkRows = 1500
)

// refData is the reference kernel's fixed input.
type refData struct {
	x    [][]float64
	y    []int
	walk [][]refPacked
}

type refPacked struct {
	feature   uint32
	left      uint32 // the right child is left+1; 0 marks a leaf
	threshold float64
}

func newRefData() *refData {
	rng := rand.New(rand.NewSource(1))
	d := &refData{x: make([][]float64, refRows), y: make([]int, refRows)}
	for i := range d.x {
		d.x[i] = make([]float64, refFeatures)
		for j := range d.x[i] {
			d.x[i][j] = rng.Float64()
		}
		d.y[i] = int(d.x[i][0]*2+d.x[i][3]+rng.Float64()) % refClasses
	}
	for t := 0; t < refWalkTree; t++ {
		nodes := make([]refPacked, 1<<refDepth-1)
		for i := range nodes {
			left := uint32(2*i + 1)
			if int(left) >= len(nodes) {
				left = 0
			}
			nodes[i] = refPacked{feature: uint32(rng.Intn(refFeatures)), left: left, threshold: rng.Float64()}
		}
		d.walk = append(d.walk, nodes)
	}
	return d
}

type refNode struct {
	left, right *refNode
	counts      []int
}

func gini(counts []int, n int) float64 {
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

// grow builds a depth-limited tree over the rows in idx, trying four
// random features per node.
func (d *refData) grow(idx []int, depth int, rng *rand.Rand) *refNode {
	n := &refNode{counts: make([]int, refClasses)}
	for _, i := range idx {
		n.counts[d.y[i]]++
	}
	if depth == 0 || len(idx) < 8 {
		return n
	}
	best, bestF, bestT := 1e9, -1, 0.0
	sorted := make([]int, len(idx))
	for k := 0; k < 4; k++ {
		f := rng.Intn(refFeatures)
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return d.x[sorted[a]][f] < d.x[sorted[b]][f] })
		left := make([]int, refClasses)
		right := append([]int(nil), n.counts...)
		for p := 0; p < len(sorted)-1; p++ {
			c := d.y[sorted[p]]
			left[c]++
			right[c]--
			nl, nr := p+1, len(sorted)-p-1
			if s := float64(nl)*gini(left, nl) + float64(nr)*gini(right, nr); s < best {
				best, bestF, bestT = s, f, (d.x[sorted[p]][f]+d.x[sorted[p+1]][f])/2
			}
		}
	}
	var li, ri []int
	for _, i := range idx {
		if d.x[i][bestF] <= bestT {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return n
	}
	n.left, n.right = d.grow(li, depth-1, rng), d.grow(ri, depth-1, rng)
	return n
}

// kernel is one unit of reference work: a bootstrap tree, then every walk
// tree for refWalkRows rows. It returns a value derived from both so
// neither can be optimized away.
func (d *refData) kernel(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, refRows)
	for i := range idx {
		idx[i] = rng.Intn(refRows)
	}
	root := d.grow(idx, 8, rng)
	sum := float64(root.counts[0])
	for _, row := range d.x[:refWalkRows] {
		for _, nodes := range d.walk {
			i := uint32(0)
			for nodes[i].left != 0 {
				if row[nodes[i].feature] <= nodes[i].threshold {
					i = nodes[i].left
				} else {
					i = nodes[i].left + 1
				}
			}
			sum += nodes[i].threshold
		}
	}
	return sum
}

// calibrateMain serves calibration requests on standard input: each line
// is a worker count, answered with the milliseconds the kernel took on
// that many goroutines at once.
func calibrateMain() int {
	d := newRefData()
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		workers, err := strconv.Atoi(sc.Text())
		if err != nil || workers < 1 {
			fmt.Fprintln(os.Stderr, "calibrate: bad worker count", sc.Text())
			return 2
		}
		sums := make([]float64, workers)
		t0 := time.Now()
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				sums[w] = d.kernel(int64(w))
			}(w)
		}
		wg.Wait()
		fmt.Printf("%.6f %g\n", time.Since(t0).Seconds()*1e3, sums[0])
	}
	return 0
}

// calibrator is a running calibration child.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--calibrate")
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start calibrator: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// sample times the kernel on workers goroutines and appends the
// milliseconds to into.
func (c *calibrator) sample(workers int, into *[]float64) error {
	if _, err := fmt.Fprintln(c.in, workers); err != nil {
		return fmt.Errorf("calibrator: %w", err)
	}
	if !c.out.Scan() {
		return errors.New("calibrator exited")
	}
	msText, _, _ := strings.Cut(c.out.Text(), " ")
	ms, err := strconv.ParseFloat(msText, 64)
	if err != nil {
		return fmt.Errorf("calibrator: %w", err)
	}
	*into = append(*into, ms)
	return nil
}

// stop ends the child and waits for it.
func (c *calibrator) stop() {
	c.in.Close()
	_ = c.cmd.Wait() // the child's exit status carries no result
}

// speed is the machine's speed during a run relative to the reference:
// calibrationRefMs over the median kernel time of the samples. A gated
// rate is divided by it, a gated time multiplied.
func speed(samples []float64) float64 {
	return calibrationRefMs / median(samples)
}
