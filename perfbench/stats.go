package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"strudel"
)

// minTailSamples is how many samples must lie beyond a reported percentile.
const minTailSamples = 10

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (the smallest
// sample with at least p% of the samples at or below it) and the number of
// samples ranked beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// digest is an order-sensitive hash of annotation outputs.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) float(v float64) {
	binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(v))
	d.h.Write(d.buf[:])
}

func (d *digest) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// annotation hashes one file's annotation and the dialect it was parsed
// under: classes, Strudel^L probabilities to the bit, and degraded reasons.
func (d *digest) annotation(ann *strudel.Annotation, dialect string) {
	if ann.Err != nil {
		d.str("error")
		return
	}
	d.str(dialect)
	d.int(len(ann.Lines))
	for _, c := range ann.Lines {
		d.int(int(c))
	}
	for _, row := range ann.Cells {
		d.int(len(row))
		for _, c := range row {
			d.int(int(c))
		}
	}
	for _, p := range ann.LineProbabilities {
		for _, v := range p {
			d.float(v)
		}
	}
	d.int(len(ann.Degraded))
	for _, s := range ann.Degraded {
		d.str(s)
	}
}

// accuracy counts predicted classes that match gold labels over the
// non-empty gold elements.
type accuracy struct {
	lineOK, lines, cellOK, cells int
}

// add scores one file. Gold rows or cells the prediction does not cover
// count as misses.
func (a *accuracy) add(gold labels, lines []strudel.Class, cells [][]strudel.Class) {
	for r, g := range gold.lines {
		if g != strudel.ClassEmpty {
			a.lines++
			if r < len(lines) && lines[r] == g {
				a.lineOK++
			}
		}
		for c, g := range gold.cells[r] {
			if g == strudel.ClassEmpty {
				continue
			}
			a.cells++
			if r < len(cells) && c < len(cells[r]) && cells[r][c] == g {
				a.cellOK++
			}
		}
	}
}

func (a *accuracy) merge(b accuracy) {
	a.lineOK += b.lineOK
	a.lines += b.lines
	a.cellOK += b.cellOK
	a.cells += b.cells
}

func (a *accuracy) lineShare() float64 { return ratio(float64(a.lineOK), float64(a.lines)) }
func (a *accuracy) cellShare() float64 { return ratio(float64(a.cellOK), float64(a.cells)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
