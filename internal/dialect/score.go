package dialect

import (
	"math"
	"strings"
	"unicode/utf8"

	"strudel/internal/types"
)

// scorer computes consistency scores for one text in a single scan per
// candidate dialect. It tokenizes with exactly the state machine of
// Splitter.step, but never materializes rows: each cell is handed to the
// type tally as it completes, as a substring of the text whenever its bytes
// are a contiguous run of the text (the common case), and from one reused
// buffer only when quote or escape processing or '\r' removal drops bytes
// from inside it. Row widths are counted in a width-indexed slice.
//
// Split remains the tokenizer of the real parse; the scorer only has to
// agree with it, which the oracle tests pin bit for bit.
type scorer struct {
	// text is the input as Split sees it: the leading BOM dropped and
	// invalid UTF-8 already replaced by U+FFFD rune for rune, so every
	// byte of a cell is a byte of text.
	text string
	// widths[w] counts the rows w cells wide; zero between candidates.
	widths []int
	// buf holds the cell being built when it is not a substring of text.
	buf []byte
}

func newScorer(text string) *scorer {
	text = strings.TrimPrefix(text, "\ufeff")
	if !utf8.ValidString(text) {
		// Split decodes invalid bytes to U+FFFD one byte at a time;
		// re-encoding once here lets every candidate scan valid text.
		valid := make([]byte, 0, len(text)+len(text)/2)
		for _, r := range text {
			valid = utf8.AppendRune(valid, r)
		}
		text = string(valid)
	}
	return &scorer{text: text}
}

// score is ConsistencyScore(text, d) for the scorer's text.
func (sc *scorer) score(d Dialect) float64 {
	// special marks the bytes that can start a rune the tokenizer acts on;
	// any other byte is cell content.
	var special [256]bool
	for _, r := range [...]rune{d.Delimiter, d.Quote, d.Escape, '\r', '\n'} {
		var enc [utf8.UTFMax]byte
		utf8.EncodeRune(enc[:], r)
		special[enc[0]] = true
	}

	text, buf := sc.text, sc.buf[:0]
	n := len(text)
	var (
		t        tally
		rows     int
		maxWidth int
		width    int // cells completed in the current row
		inQuotes bool
		// The current cell is buf + text[seg:end], where end is cut once
		// bytes have been dropped after the kept run (cut < 0 otherwise,
		// and end is the scan position). Content arriving after a cut
		// moves the kept run into buf.
		seg, cut = 0, -1
	)
	for i := 0; i < n; {
		c := text[i]
		if !special[c] {
			if cut >= 0 {
				buf = append(buf, text[seg:cut]...)
				seg, cut = i, -1
			}
			for i++; i < n && !special[text[i]]; i++ {
			}
			continue
		}
		r, w := rune(c), 1
		if c >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(text[i:])
		}
		// The cases, in Splitter.step's order; a rune no case drops or
		// acts on is content.
		drop := false
		switch {
		case d.Escape != 0 && r == d.Escape && inQuotes && i+w < n:
			// The escape is dropped and the rune after it kept verbatim.
			_, nw := utf8.DecodeRuneInString(text[i+w:])
			buf, seg, cut = keepFrom(text, buf, seg, cut, i, i+w)
			i += w + nw
			continue
		case d.Quote != 0 && r == d.Quote:
			switch {
			case inQuotes && d.Escape == 0 && i+w < n && strings.HasPrefix(text[i+w:], text[i:i+w]):
				// A doubled quote is one literal quote: drop the first.
				buf, seg, cut = keepFrom(text, buf, seg, cut, i, i+w)
				i += 2 * w
				continue
			case inQuotes:
				inQuotes, drop = false, true
			case len(buf) == 0 && cut < 0 && seg == i:
				inQuotes, drop = true, true // opens only an empty cell
			}
		case inQuotes:
			// Delimiters and line breaks are content inside quotes.
		case r == d.Delimiter:
			buf = t.addCell(text, buf, seg, cut, i)
			width++
			seg, cut = i+w, -1
			i += w
			continue
		case r == '\r':
			drop = true // the '\n' that follows ends the row
		case r == '\n':
			buf = t.addCell(text, buf, seg, cut, i)
			rows++
			maxWidth, sc.widths = countRow(sc.widths, width+1, maxWidth)
			width = 0
			seg, cut = i+w, -1
			i += w
			continue
		}
		switch {
		case !drop:
			buf, seg, cut = keepFrom(text, buf, seg, cut, i, i)
		case cut >= 0:
			// Already cut: the drop only widens the gap.
		case seg == i:
			seg = i + w // nothing kept yet: the run starts later
		default:
			cut = i
		}
		i += w
	}
	// Split's final flush: a trailing row without '\n' counts when it has
	// any content.
	if len(buf) > 0 || cut >= 0 || seg < n || width > 0 {
		buf = t.addCell(text, buf, seg, cut, n)
		rows++
		maxWidth, sc.widths = countRow(sc.widths, width+1, maxWidth)
	}
	sc.buf = buf
	if rows == 0 {
		return 0
	}
	widths := sc.widths[:maxWidth+1]
	pattern := patternScore(widths, rows)
	clear(widths)
	return pattern * t.score()
}

// keepFrom records that the cell's content continues with the rune at at,
// after the runes in [drop, at) were dropped. If the kept run had already
// been cut short, it moves into buf and a new run starts at at.
func keepFrom(text string, buf []byte, seg, cut, drop, at int) ([]byte, int, int) {
	if cut < 0 && drop < at {
		if seg == drop {
			return buf, at, -1 // nothing kept yet: the run starts later
		}
		cut = drop
	}
	if cut >= 0 {
		buf = append(buf, text[seg:cut]...)
		seg = at
	}
	return buf, seg, -1
}

// countRow counts one row of the given width, growing widths as needed, and
// returns the new widest width.
func countRow(widths []int, width, maxWidth int) (int, []int) {
	if width >= len(widths) {
		widths = append(widths, make([]int, width+1-len(widths))...)
	}
	widths[width]++
	return max(maxWidth, width), widths
}

// patternScore measures row-pattern regularity. Each row is abstracted to
// its cell count; the score rewards patterns that are frequent and wide:
//
//	P = sum over distinct patterns k of N_k/N * (L_k - 1) / L_k'
//
// where N_k is how many rows have pattern k, L_k the number of cells in the
// pattern, and the (L_k - 1) term penalizes the trivial single-cell pattern,
// following eq. (2) of van den Burg et al. (simplified to cell counts, since
// verbose files have no per-cell pattern variation after splitting).
// widths[w] is the number of rows w cells wide, out of rows in total. The
// sum runs in ascending width order: float summation order decides ulps,
// and ulps decide tie-breaks between candidates.
func patternScore(widths []int, rows int) float64 {
	n := float64(rows)
	score := 0.0
	for width := 1; width < len(widths); width++ {
		c := widths[width]
		if c == 0 {
			continue
		}
		lk := float64(width)
		alpha := (lk - 1) / lk
		if width == 1 {
			alpha = 0.5 / lk // small non-zero weight for single-cell rows
		}
		score += float64(c) / n * alpha * float64(c) / n
	}
	return score
}

// tally counts the non-empty cells of a parse and how many of them are
// well-typed, for the type score.
type tally struct {
	total, typed int
}

// addCell tallies the cell buf + text[seg:end] (end = cut when cut >= 0)
// and returns buf emptied for the next cell.
func (t *tally) addCell(text string, buf []byte, seg, cut, end int) []byte {
	if cut >= 0 {
		end = cut
	}
	if len(buf) == 0 {
		t.add(text[seg:end])
		return buf
	}
	buf = append(buf, text[seg:end]...)
	t.add(string(buf)) // a copy, made only for cells with dropped bytes inside
	return buf[:0]
}

func (t *tally) add(cell string) {
	v := strings.TrimSpace(cell)
	if v == "" {
		return
	}
	t.total++
	// looksClean first: it is cheaper than Infer and decides most cells.
	if looksClean(v) {
		t.typed++
		return
	}
	switch types.Infer(v) {
	case types.Int, types.Float, types.Date:
		t.typed++
	}
}

// score is the type score: the fraction of non-empty cells whose inferred
// type is not plain free text, smoothed so that an all-string parse still
// gets a small positive score (eq. (3) of van den Burg et al. uses type
// recognition the same way).
func (t *tally) score() float64 {
	if t.total == 0 {
		return 1e-3
	}
	return math.Max(float64(t.typed)/float64(t.total), 1e-3)
}

// looksClean reports whether a string cell looks like a well-formed field
// (short, no stray delimiters or unbalanced quotes) rather than a fragment
// of an incorrectly split sentence: at most 64 bytes, an even number of
// each quote character, none of the rarer candidate delimiters (a field
// still holding one is probably under-split), and at most four spaces.
func looksClean(v string) bool {
	if len(v) > 64 {
		return false
	}
	var n [numCleanClasses]int
	for i := 0; i < len(v); i++ {
		n[cleanClass[v[i]]]++
	}
	return n[cleanRare] == 0 && n[cleanDQuote]%2 == 0 && n[cleanSQuote]%2 == 0 && n[cleanSpace] <= 4
}

// The byte classes looksClean counts.
const (
	cleanOther = iota
	cleanDQuote
	cleanSQuote
	cleanSpace
	cleanRare
	numCleanClasses
)

var cleanClass = [256]uint8{
	'"': cleanDQuote, '\'': cleanSQuote, ' ': cleanSpace,
	';': cleanRare, '|': cleanRare, '\t': cleanRare, '^': cleanRare, '~': cleanRare,
}
