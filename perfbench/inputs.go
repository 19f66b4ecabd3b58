package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unicode/utf16"

	"strudel"
	"strudel/internal/datagen"
	"strudel/internal/dialect"
)

// profileOrder fixes the order the six datagen profiles are generated in.
var profileOrder = []string{"govuk", "saus", "cius", "deex", "mendeley", "troy"}

// subSeed derives an input seed from the workload seed and a tag
// (splitmix64). Profile default seeds are small positive numbers used for
// training; a derived seed that hits one is moved off it.
func subSeed(seed int64, tags ...int64) int64 {
	x := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, t := range tags {
		x += uint64(t)*0xBF58476D1CE4E5B9 + 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	s := int64(x >> 1)
	for _, p := range datagen.Profiles() {
		if s == p.Seed {
			s++
		}
	}
	return s
}

// labels are gold line and cell classes, one row per line.
type labels struct {
	lines []strudel.Class
	cells [][]strudel.Class
}

func tableLabels(t *strudel.Table) labels { return labels{t.LineClasses, t.CellClasses} }

// file is one generated input: CSV bytes plus the gold labels of the table
// they render, cropped the way loading crops.
type file struct {
	name string
	data []byte
	gold labels
}

// render writes a table as comma-separated text, the way WriteSized does.
func render(t *strudel.Table) string {
	rows := make([][]string, t.Height())
	for r := range rows {
		rows[r] = t.Row(r)
	}
	return dialect.Join(rows, dialect.Default)
}

// batchSet generates set k of a batch-mixed run: every datagen profile at
// half its standard file count (164 files), in profile order. One file in
// four is re-encoded, cycling through UTF-16LE with a BOM, CRLF line
// endings and latin-1.
func batchSet(seed int64, k int) []file {
	var out []file
	for pi, name := range profileOrder {
		p := datagen.Profiles()[name].Scale(0.5)
		p.Seed = subSeed(seed, int64(k), int64(pi))
		for _, t := range datagen.Generate(p).Files {
			text := render(t)
			f := file{name: fmt.Sprintf("set%d/%s", k, t.Name), gold: tableLabels(t.Clone().Crop())}
			switch len(out) % 12 {
			case 3:
				f.data = utf16LE(text)
			case 6:
				f.data = crlf(text)
			case 9:
				f.data = latin1(text)
			default:
				f.data = []byte(text)
			}
			out = append(out, f)
		}
	}
	return out
}

func utf16LE(s string) []byte {
	units := utf16.Encode([]rune(s))
	b := make([]byte, 2, 2+2*len(units))
	b[0], b[1] = 0xFF, 0xFE
	for _, u := range units {
		b = binary.LittleEndian.AppendUint16(b, u)
	}
	return b
}

func crlf(s string) []byte {
	return bytes.ReplaceAll([]byte(s), []byte("\n"), []byte("\r\n"))
}

// latin1 writes the text as latin-1 with an accented first line: every 'e'
// of the first line becomes é (0xE9), so the bytes are not valid UTF-8 and
// loading takes the latin-1 fallback.
func latin1(s string) []byte {
	b := []byte(s)
	for i, c := range b {
		if c == '\n' {
			break
		}
		if c == 'e' {
			b[i] = 0xE9
		}
	}
	return b
}

// segment is one stacked WriteSized output inside the stream input.
type segment struct {
	profile string
	data    []byte
	files   int
}

// streamInput builds the stream-stacked input: stacked WriteSized output
// for GovUK, SAUS and Mendeley, segBytes each, separated by a blank line.
// It also returns the gold line and cell classes of every line, built from
// the same generator draws; renderings of those tables must reproduce the
// WriteSized bytes exactly, which the function checks.
func streamInput(seed int64, segBytes int64) ([]byte, []segment, labels, error) {
	var stream bytes.Buffer
	var segs []segment
	var gold labels
	blankLabel := func() {
		gold.lines = append(gold.lines, strudel.ClassEmpty)
		gold.cells = append(gold.cells, nil)
	}
	for si, name := range []string{"govuk", "saus", "mendeley"} {
		p := datagen.Profiles()[name]
		p.Seed = subSeed(seed, 100, int64(si))
		var seg bytes.Buffer
		_, n, err := datagen.WriteSized(&seg, p, segBytes)
		if err != nil {
			return nil, nil, gold, fmt.Errorf("write %s: %w", name, err)
		}
		// Generate draws the same files WriteSized stacks.
		p.Files = n
		tables := datagen.Generate(p).Files
		var again bytes.Buffer
		for fi, t := range tables {
			if fi > 0 {
				again.WriteByte('\n')
			}
			again.WriteString(render(t))
		}
		if !bytes.Equal(again.Bytes(), seg.Bytes()) {
			return nil, nil, gold, fmt.Errorf("%s: gold tables do not render to the WriteSized bytes", name)
		}
		if si > 0 {
			stream.WriteByte('\n')
			blankLabel()
		}
		segs = append(segs, segment{profile: name, data: seg.Bytes(), files: n})
		stream.Write(seg.Bytes())
		for fi, t := range tables {
			if fi > 0 {
				blankLabel()
			}
			gold.lines = append(gold.lines, t.LineClasses...)
			gold.cells = append(gold.cells, t.CellClasses...)
		}
	}
	return stream.Bytes(), segs, gold, nil
}
