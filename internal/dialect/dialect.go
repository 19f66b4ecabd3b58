// Package dialect detects and applies CSV dialects.
//
// Verbose CSV files rarely announce their dialect (delimiter, quote
// character, escape character). The paper preprocesses every input with the
// data-consistency approach of van den Burg et al. (2019): enumerate
// candidate dialects, parse the file under each, and score the result by the
// product of a pattern score (how regular the row-pattern abstraction is)
// and a type score (what fraction of resulting cells have a recognizable
// data type). This package re-implements that scheme and provides a parser
// that turns raw text into rows under a chosen dialect.
package dialect

import (
	"bufio"
	"errors"
	"io"
	"math"
	"strings"

	"strudel/internal/obs"
)

// Dialect describes how a delimited text file is tokenized.
type Dialect struct {
	// Delimiter separates cells within a line.
	Delimiter rune
	// Quote is the quoting character, or 0 for no quoting.
	Quote rune
	// Escape is the escape character inside quoted fields, or 0 when quotes
	// are escaped by doubling (the RFC 4180 convention).
	Escape rune
}

// Default is the RFC 4180 dialect: comma-delimited, double-quoted,
// quote-doubling escapes.
var Default = Dialect{Delimiter: ',', Quote: '"'}

// String renders the dialect compactly, e.g. `delim=',' quote='"'`.
func (d Dialect) String() string {
	var b strings.Builder
	b.WriteString("delim=")
	writeRune(&b, d.Delimiter)
	b.WriteString(" quote=")
	writeRune(&b, d.Quote)
	if d.Escape != 0 {
		b.WriteString(" escape=")
		writeRune(&b, d.Escape)
	}
	return b.String()
}

func writeRune(b *strings.Builder, r rune) {
	if r == 0 {
		b.WriteString("none")
		return
	}
	b.WriteByte('\'')
	switch r {
	case '\t':
		b.WriteString(`\t`)
	default:
		b.WriteRune(r)
	}
	b.WriteByte('\'')
}

// candidateDelimiters are the delimiters enumerated during detection,
// following the potential-dialect construction of van den Burg et al.
var candidateDelimiters = []rune{',', ';', '\t', '|', ':', ' ', '#', '~', '^'}

// candidateQuotes are the quote characters enumerated during detection.
var candidateQuotes = [...]rune{'"', '\'', 0}

// Detection is the outcome of dialect detection: the winning dialect plus
// the evidence behind it, so callers can apply a confidence floor instead
// of trusting a garbage winner.
type Detection struct {
	// Dialect is the highest-scoring candidate.
	Dialect Dialect
	// Score is the winner's consistency score Q(d) in [0, 1].
	Score float64
	// Margin is the winner's lead over the best other delimiter (0 when
	// only one candidate was enumerable).
	Margin float64
}

// Detect parses the text under every candidate dialect and returns the one
// with the highest consistency score. It returns an error for empty input.
func Detect(text string) (Dialect, error) {
	det, err := DetectBest(text)
	return det.Dialect, err
}

// DetectBestObs is DetectBest under observation: the detection is timed as
// obs.StageDialect, counted under obs.MDialectDetections, and the winning
// score lands in the obs.MDialectScore histogram. A nil h is free; the
// detection result itself is identical to DetectBest.
func DetectBestObs(text string, h *obs.Hooks) (Detection, error) {
	start := h.SpanStart(obs.StageDialect)
	det, err := DetectBest(text)
	h.SpanEnd(obs.StageDialect, start)
	if h.Active() && err == nil {
		h.Count(obs.MDialectDetections, 1)
		h.Observe(obs.MDialectScore, det.Score, obs.UnitBuckets)
	}
	return det, err
}

// DetectBest is Detect with the winner's score and margin attached. The
// margin compares against the best candidate using a different delimiter,
// since quote-only variants of the winner are near-duplicates.
func DetectBest(text string) (Detection, error) {
	if strings.TrimSpace(text) == "" {
		return Detection{}, errors.New("dialect: empty input")
	}
	sc := newScorer(text)
	// A quote character that never occurs in the text never fires, so its
	// candidates parse exactly like the unquoted one: score that parse
	// once per delimiter and reuse it.
	var absent [len(candidateQuotes)]bool
	for i, quote := range candidateQuotes {
		absent[i] = quote == 0 || !strings.ContainsRune(sc.text, quote)
	}
	best, bestScore := Default, math.Inf(-1)
	// Best score per delimiter, for the margin computation.
	perDelim := make([]float64, 0, len(candidateDelimiters))
	for _, delim := range candidateDelimiters {
		if !strings.ContainsRune(text, delim) && delim != ',' {
			continue // a delimiter that never occurs cannot win
		}
		delimBest := math.Inf(-1)
		unquoted, scored := 0.0, false
		for i, quote := range candidateQuotes {
			d := Dialect{Delimiter: delim, Quote: quote}
			score := unquoted
			switch {
			case !absent[i]:
				score = sc.score(d)
			case !scored:
				unquoted, scored = sc.score(Dialect{Delimiter: delim}), true
				score = unquoted
			}
			if score > delimBest {
				delimBest = score
			}
			if score > bestScore {
				best, bestScore = d, score
			}
		}
		perDelim = append(perDelim, delimBest)
	}
	margin := 0.0
	if len(perDelim) > 1 {
		runnerUp := math.Inf(-1)
		for _, s := range perDelim {
			if s < bestScore && s > runnerUp {
				runnerUp = s
			}
		}
		if !math.IsInf(runnerUp, -1) {
			margin = bestScore - runnerUp
		}
	}
	return Detection{Dialect: best, Score: bestScore, Margin: margin}, nil
}

// ConsistencyScore computes the data-consistency measure Q(d) = P(d) * T(d)
// for parsing text under dialect d, where P is the pattern score and T is
// the type score. It scores the parse Split(text, d) would produce without
// materializing its rows.
func ConsistencyScore(text string, d Dialect) float64 {
	return newScorer(text).score(d)
}

// Split parses text into rows of cells under dialect d. Lines are separated
// by \n (with \r\n tolerated); newlines inside quoted fields are preserved.
// A leading UTF-8 byte-order mark is dropped, as spreadsheet exports often
// carry one.
func Split(text string, d Dialect) [][]string {
	rows, _ := SplitLimit(text, d, 0)
	return rows
}

// SplitLimit is Split with a resource guard: rows are capped at maxCells
// cells (0 = unlimited); the content of cells beyond the cap is discarded
// and counted in dropped. It exists so an adversarial single-line file
// cannot allocate an unbounded cell slice.
//
// It is a thin wrapper over the incremental Splitter: whole-file and
// streaming parsing share one tokenizing state machine by construction.
func SplitLimit(text string, d Dialect, maxCells int) (rows [][]string, dropped int) {
	sp := NewSplitter(d, maxCells)
	sp.Write(text)
	sp.Flush()
	return sp.rows, sp.dropped
}

// Join renders rows back to text under dialect d, quoting cells that contain
// the delimiter, the quote character, or a newline. It is the inverse of
// Split for round-trippable content.
func Join(rows [][]string, d Dialect) string {
	var b strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteRune(d.Delimiter)
			}
			writeCell(&b, cell, d)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func writeCell(b *strings.Builder, cell string, d Dialect) {
	needsQuote := strings.ContainsRune(cell, d.Delimiter) ||
		strings.ContainsAny(cell, "\r\n") ||
		(d.Quote != 0 && strings.ContainsRune(cell, d.Quote)) ||
		// A leading BOM would be eaten by Split's BOM stripping when the
		// cell opens the file; quoting protects it.
		strings.HasPrefix(cell, "\ufeff")
	if !needsQuote || d.Quote == 0 {
		b.WriteString(cell)
		return
	}
	b.WriteRune(d.Quote)
	for _, r := range cell {
		if r == d.Quote {
			if d.Escape != 0 {
				b.WriteRune(d.Escape)
			} else {
				b.WriteRune(d.Quote)
			}
		}
		b.WriteRune(r)
	}
	b.WriteRune(d.Quote)
}

// ReadAll reads everything from r and splits it under dialect d.
func ReadAll(r io.Reader, d Dialect) ([][]string, error) {
	br := bufio.NewReader(r)
	var b strings.Builder
	if _, err := io.Copy(&b, br); err != nil {
		return nil, err
	}
	return Split(b.String(), d), nil
}
