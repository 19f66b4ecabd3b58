package dialect_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"strudel/internal/datagen"
	"strudel/internal/dialect"
	"strudel/internal/ingest"
	"strudel/internal/types"
)

// The oracle is the consistency score as it was computed before the
// one-pass scorer: materialize every row with Split, then take the pattern
// score over the row widths times the type score over the cells. The
// scorer must reproduce it bit for bit, and DetectBest must reproduce the
// detection the oracle's scores lead to.

var (
	oracleDelimiters = []rune{',', ';', '\t', '|', ':', ' ', '#', '~', '^'}
	oracleQuotes     = []rune{'"', '\'', 0}
)

func oracleScore(text string, d dialect.Dialect) float64 {
	rows := dialect.Split(text, d)
	return oraclePatternScore(rows) * oracleTypeScore(rows)
}

func oracleDetect(text string) (dialect.Detection, bool) {
	if strings.TrimSpace(text) == "" {
		return dialect.Detection{}, false
	}
	best, bestScore := dialect.Default, math.Inf(-1)
	perDelim := make([]float64, 0, len(oracleDelimiters))
	for _, delim := range oracleDelimiters {
		if !strings.ContainsRune(text, delim) && delim != ',' {
			continue
		}
		delimBest := math.Inf(-1)
		for _, quote := range oracleQuotes {
			d := dialect.Dialect{Delimiter: delim, Quote: quote}
			score := oracleScore(text, d)
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
	return dialect.Detection{Dialect: best, Score: bestScore, Margin: margin}, true
}

func oraclePatternScore(rows [][]string) float64 {
	if len(rows) == 0 {
		return 0
	}
	counts := map[int]int{}
	widths := make([]int, 0, 8)
	for _, row := range rows {
		if counts[len(row)] == 0 {
			widths = append(widths, len(row))
		}
		counts[len(row)]++
	}
	sort.Ints(widths)
	n := float64(len(rows))
	score := 0.0
	for _, width := range widths {
		c := counts[width]
		if width == 0 {
			continue
		}
		lk := float64(width)
		alpha := (lk - 1) / lk
		if width == 1 {
			alpha = 0.5 / lk
		}
		score += float64(c) / n * alpha * float64(c) / n
	}
	return score
}

func oracleTypeScore(rows [][]string) float64 {
	total, typed := 0, 0
	for _, row := range rows {
		for _, cell := range row {
			v := strings.TrimSpace(cell)
			if v == "" {
				continue
			}
			total++
			switch types.Infer(v) {
			case types.Int, types.Float, types.Date:
				typed++
			default:
				if oracleLooksClean(v) {
					typed++
				}
			}
		}
	}
	if total == 0 {
		return 1e-3
	}
	return math.Max(float64(typed)/float64(total), 1e-3)
}

func oracleLooksClean(v string) bool {
	if len(v) > 64 {
		return false
	}
	if strings.Count(v, `"`)%2 != 0 || strings.Count(v, `'`)%2 != 0 {
		return false
	}
	if strings.ContainsAny(v, ";|\t^~") {
		return false
	}
	return strings.Count(v, " ") <= 4
}

// offCandidateDialects exercise the scorer's general path: an escape
// character, a multi-byte delimiter and quote, and a quote equal to the
// delimiter.
var offCandidateDialects = []dialect.Dialect{
	{Delimiter: ',', Quote: '"', Escape: '\\'},
	{Delimiter: ';', Quote: '\'', Escape: '\''},
	{Delimiter: '§', Quote: '«'},
	{Delimiter: ',', Quote: ','},
	{Delimiter: '\n', Quote: '"'},
	{Delimiter: '\r'},
	{Delimiter: 0xFFFD, Quote: '"'},
}

// assertMatchesOracle compares DetectBest and ConsistencyScore with the
// oracle on one input, bit for bit.
func assertMatchesOracle(t *testing.T, name, text string) {
	t.Helper()
	for _, delim := range oracleDelimiters {
		for _, quote := range oracleQuotes {
			d := dialect.Dialect{Delimiter: delim, Quote: quote}
			assertScore(t, name, text, d)
		}
	}
	for _, d := range offCandidateDialects {
		assertScore(t, name, text, d)
	}
	want, ok := oracleDetect(text)
	got, err := dialect.DetectBest(text)
	if ok != (err == nil) {
		t.Fatalf("%s: DetectBest error %v, oracle ok=%v", name, err, ok)
	}
	if got.Dialect != want.Dialect ||
		math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
		math.Float64bits(got.Margin) != math.Float64bits(want.Margin) {
		t.Fatalf("%s: DetectBest = %+v, oracle %+v", name, got, want)
	}
}

func assertScore(t *testing.T, name, text string, d dialect.Dialect) {
	t.Helper()
	got, want := dialect.ConsistencyScore(text, d), oracleScore(text, d)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: ConsistencyScore(%v) = %v, oracle %v", name, d, got, want)
	}
}

// oracleEdgeCases are the tokenizer corners the scorer reproduces without
// materializing cells.
var oracleEdgeCases = map[string]string{
	"bom":                 "\ufeffa,b\n1,2\n",
	"bom only":            "\ufeff",
	"crlf":                "a,b\r\n1,2\r\n",
	"cr mid-cell":         "a\rb,c\n1,2\r",
	"doubled quotes":      "\"say \"\"hi\"\"\",x\n\"\"\"\",y\n",
	"quote mid-cell":      "ab\"c,d\"e\n1,2\n",
	"text after close":    "\"ab\"cd,e\n\"\"x,y\n",
	"newline in quotes":   "\"line1\nline2\",x\n\"a,b\",c\n",
	"unterminated quote":  "\"open,a\nb,c\n",
	"invalid utf8":        "a,\xff\xfe,b\n\xc3,\"\xa9\",c\n",
	"split rune by quote": "\xc3\"\xa9\",x\n",
	"no trailing newline": "a;b\n1;2",
	"trailing quoted":     "a,b\n\"\"",
	"blank lines":         "\n\n\na,b\n\n",
	"escapes":             "\"a\\\"b\",c\n'x\\'y';z\n\"end\\",
	"apostrophes":         "Children's services,2019\n'quoted' value,3\n",
	"wide":                strings.Repeat("1,", 5000) + "\n",
	"multibyte":           "«a§b»§c\n§1§2\n€1,234;£2\n",
	"single cell":         "x",
	"only quote":          "\"",
	// Only cells too long to look clean reach Infer, so these make the
	// dropped bytes decide a cell's type.
	"cr in long number":  strings.Repeat("9", 70) + "\r1,x\n" + strings.Repeat("9", 70) + "\r\r1,y\r\n",
	"long quoted number": "\"" + strings.Repeat("1", 40) + "\"" + strings.Repeat("2", 40) + ",x\n",
	"typed mix":          "Region,Q1 2019,2019-03-26,\"1,234\",(12.5%)\nTotal,Mar-19,26/03/2019,3,4\n",
}

func TestScorerMatchesOracleEdgeCases(t *testing.T) {
	names := make([]string, 0, len(oracleEdgeCases))
	for name := range oracleEdgeCases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		assertMatchesOracle(t, name, oracleEdgeCases[name])
	}
}

// TestScorerMatchesOracleCorpus pins the scorer on what the pipeline feeds
// it: rendered datagen files of all six profiles in three dialects, the
// repository's testdata files raw and normalized, and the 64 KiB sniff
// prefixes of stacked WriteSized corpora.
func TestScorerMatchesOracleCorpus(t *testing.T) {
	names := make([]string, 0, 6)
	for name := range datagen.Profiles() {
		names = append(names, name)
	}
	sort.Strings(names)
	renderings := []dialect.Dialect{dialect.Default, {Delimiter: ';', Quote: '"'}, {Delimiter: '\t'}}
	for _, name := range names {
		p := datagen.Profiles()[name]
		files := datagen.Generate(p.Scale(0.05)).Files
		for i, f := range files[:min(len(files), 12)] {
			rows := make([][]string, f.Height())
			for r := range rows {
				rows[r] = f.Row(r)
			}
			d := renderings[i%len(renderings)]
			assertMatchesOracle(t, f.Name, normalized(t, dialect.Join(rows, d)))
		}
	}

	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	hostile, err := filepath.Glob(filepath.Join("..", "..", "testdata", "hostile", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 || len(hostile) == 0 {
		t.Fatal("testdata corpus not found")
	}
	for _, path := range append(paths, hostile...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracle(t, path+" (raw)", string(data))
		if res, err := ingest.Normalize(data, ingest.Options{}); err == nil {
			assertMatchesOracle(t, path, res.Text)
		}
	}

	for _, p := range []datagen.Profile{datagen.GovUK(), datagen.SAUS(), datagen.Mendeley()} {
		var buf bytes.Buffer
		if _, _, err := datagen.WriteSized(&buf, p, 80<<10); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		if cut := strings.IndexByte(text[64<<10:], '\n'); cut >= 0 {
			text = text[:64<<10+cut+1]
		}
		assertMatchesOracle(t, p.Name+" sniff prefix", text)
	}
}

func normalized(t *testing.T, text string) string {
	t.Helper()
	res, err := ingest.Normalize([]byte(text), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Text
}

// FuzzDetectBest differentially checks the scorer against the oracle on
// arbitrary input, invalid UTF-8 included.
func FuzzDetectBest(f *testing.F) {
	for _, text := range oracleEdgeCases {
		f.Add(text)
	}
	f.Add("a,b,c\n1,2,3\n")
	f.Add("x;y\n\"1;2\";3\n")
	f.Fuzz(func(t *testing.T, text string) {
		assertMatchesOracle(t, "fuzz input", text)
	})
}
