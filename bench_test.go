package strudel

// One benchmark per table and figure of the paper's evaluation section,
// driving the same code as `strudel-bench`. Each iteration regenerates the
// experiment at a reduced scale so `go test -bench=.` completes in minutes;
// run `strudel-bench -paper` for the full protocol. Micro-benchmarks for
// the hot paths (dialect detection, feature extraction, Algorithms 1 and 2,
// forest training and prediction) follow.

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"strudel/internal/datagen"
	"strudel/internal/dialect"
	"strudel/internal/experiments"
	"strudel/internal/features"
	"strudel/internal/ingest"
	"strudel/internal/ml/forest"
	"strudel/internal/table"
)

// benchConfig is the reduced experiment configuration used by benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Scale = 0.25
	cfg.Folds = 3
	cfg.Repeats = 1
	cfg.Trees = 20
	cfg.MaxCellsPerFile = 300
	return cfg
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Diversity regenerates Table 3 (cell-class diversity
// degrees per dataset).
func BenchmarkTable3Diversity(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4CorpusSummary regenerates Table 4 (corpus sizes).
func BenchmarkTable4CorpusSummary(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5ClassDistribution regenerates Table 5 (elements per class).
func BenchmarkTable5ClassDistribution(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6LineClassification regenerates Table 6 top: CRF^L vs
// Pytheas^L vs Strudel^L under file-grouped cross-validation.
func BenchmarkTable6LineClassification(b *testing.B) { runExperiment(b, "table6-line") }

// BenchmarkTable6CellClassification regenerates Table 6 bottom: Line^C vs
// RNN^C vs Strudel^C.
func BenchmarkTable6CellClassification(b *testing.B) { runExperiment(b, "table6-cell") }

// BenchmarkFigure3ConfusionMatrices regenerates Figure 3 (ensemble
// confusion matrices for Strudel^L and Strudel^C).
func BenchmarkFigure3ConfusionMatrices(b *testing.B) { runExperiment(b, "figure3") }

// BenchmarkTable7OutOfDomain regenerates Table 7 (train SAUS+CIUS+DeEx,
// test Troy).
func BenchmarkTable7OutOfDomain(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkTable8PlainText regenerates Table 8 (test on Mendeley
// plain-text files).
func BenchmarkTable8PlainText(b *testing.B) { runExperiment(b, "table8") }

// BenchmarkFigure4FeatureImportance regenerates Figure 4 (one-vs-rest
// permutation feature importance).
func BenchmarkFigure4FeatureImportance(b *testing.B) { runExperiment(b, "figure4") }

// BenchmarkScalability regenerates the Section 6.3.4 runtime-vs-size
// measurement.
func BenchmarkScalability(b *testing.B) { runExperiment(b, "scale") }

// BenchmarkAblationClassifiers regenerates the Section 6.1.2 backbone
// bake-off (NB / KNN / SVM / forest).
func BenchmarkAblationClassifiers(b *testing.B) { runExperiment(b, "ablate-clf") }

// BenchmarkAblationFeatureGroups regenerates the feature-group ablation
// (Strudel^L minus content / contextual / computational features).
func BenchmarkAblationFeatureGroups(b *testing.B) { runExperiment(b, "ablate-feat") }

// BenchmarkAblationAggregations measures Algorithm 2 under sum-only,
// sum+mean, and extended (min/max) aggregation sets.
func BenchmarkAblationAggregations(b *testing.B) { runExperiment(b, "ablate-agg") }

// BenchmarkAblationPostProcess compares Strudel^C with and without the
// Koci-style misclassification repair.
func BenchmarkAblationPostProcess(b *testing.B) { runExperiment(b, "ablate-post") }

// BenchmarkAblationColumns compares Strudel^C with and without
// column-probability features (the paper's future-work question iii).
func BenchmarkAblationColumns(b *testing.B) { runExperiment(b, "ablate-col") }

// BenchmarkActiveLearning runs the uncertainty-vs-random active learning
// comparison.
func BenchmarkActiveLearning(b *testing.B) { runExperiment(b, "active") }

// BenchmarkImportanceComparison contrasts Gini and permutation feature
// importance (the Section 6.3.5 methodological choice).
func BenchmarkImportanceComparison(b *testing.B) { runExperiment(b, "importance") }

// BenchmarkExtraction measures downstream relational extraction quality
// under predicted vs gold line classes.
func BenchmarkExtraction(b *testing.B) { runExperiment(b, "extraction") }

// BenchmarkHardCases reproduces the Section 6.3.6 difficult-case analysis
// from the ensemble confusion matrices.
func BenchmarkHardCases(b *testing.B) { runExperiment(b, "hardcases") }

// BenchmarkBoundary evaluates table-boundary discovery (Pytheas's native
// task) for both approaches.
func BenchmarkBoundary(b *testing.B) { runExperiment(b, "boundary") }

// BenchmarkAblationContext compares closest-non-empty-neighbor context
// against strict physical adjacency.
func BenchmarkAblationContext(b *testing.B) { runExperiment(b, "ablate-ctx") }

// --- micro-benchmarks ------------------------------------------------------

func benchTable() *table.Table {
	p := datagen.SAUS()
	p.Files = 1
	p.DataRows = [2]int{40, 40}
	return datagen.Generate(p).Files[0]
}

func BenchmarkDialectDetection(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("Region;Year;Count;Rate\n")
	for i := 0; i < 200; i++ {
		sb.WriteString("North;2019;1234;5,6\n")
	}
	text := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectDialect(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectCorpus runs dialect detection the way the batch loader
// does, on every file of the six datagen profiles at scale 0.5, rendered
// as CSV and normalized through ingest. Throughput is normalized-text
// bytes per second.
func BenchmarkDetectCorpus(b *testing.B) {
	names := make([]string, 0, 6)
	for name := range datagen.Profiles() {
		names = append(names, name)
	}
	sort.Strings(names)
	var texts []string
	size := 0
	for _, name := range names {
		for _, t := range datagen.Generate(datagen.Profiles()[name].Scale(0.5)).Files {
			rows := make([][]string, t.Height())
			for r := range rows {
				rows[r] = t.Row(r)
			}
			res, err := ingest.Normalize([]byte(dialect.Join(rows, dialect.Default)), ingest.Options{})
			if err != nil {
				b.Fatal(err)
			}
			texts = append(texts, res.Text)
			size += len(res.Text)
		}
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if _, err := dialect.DetectBest(text); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkLineFeatureExtraction(b *testing.B) {
	t := benchTable()
	opts := features.DefaultLineOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.LineFeatures(t, opts)
	}
}

func BenchmarkCellFeatureExtraction(b *testing.B) {
	t := benchTable()
	opts := features.DefaultCellOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.CellFeatures(t, nil, opts)
	}
}

func BenchmarkBlockSizeAlgorithm1(b *testing.B) {
	t := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.BlockSizes(t)
	}
}

func BenchmarkDerivedDetectionAlgorithm2(b *testing.B) {
	t := benchTable()
	opts := features.DefaultDerivedOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.DetectDerived(t, opts)
	}
}

func BenchmarkForestTrain(b *testing.B) {
	files, err := GenerateCorpus("saus", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	var X [][]float64
	var y []int
	lopts := features.DefaultLineOptions()
	for _, t := range files {
		fs := features.LineFeatures(t, lopts)
		for r := 0; r < t.Height(); r++ {
			if idx := t.LineClasses[r].Index(); idx >= 0 && !t.IsEmptyLine(r) {
				X = append(X, fs[r])
				y = append(y, idx)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Fit(X, y, table.NumClasses, forest.Options{NumTrees: 20, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModel trains a small model once for the annotate benchmarks.
func benchModel(b *testing.B) *Model {
	b.Helper()
	files, err := GenerateCorpus("saus", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Train(files, TrainOptions{Trees: 20, Seed: 1, MaxCellsPerFile: 300})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAnnotate measures the single-file annotate path. The single-pass
// pipeline shares one artifact between the line stage, the cell stage's
// LineClassProbability features, and the confidence report, so each line
// feature extraction and Strudel^L forest batch runs exactly once per call
// (previously three times).
func BenchmarkAnnotate(b *testing.B) {
	m := benchModel(b)
	t := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Annotate(t)
	}
}

// BenchmarkAnnotateAll measures corpus-level batch annotation on a
// synthetic GovUK corpus, serial vs parallel, so the multi-core scaling of
// the per-file fan-out is visible in the bench trajectory.
func BenchmarkAnnotateAll(b *testing.B) {
	m := benchModel(b)
	corpus, err := GenerateCorpus("govuk", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.AnnotateAll(corpus, BatchOptions{Parallelism: bc.workers})
			}
		})
	}
}

// BenchmarkAnnotateAllObs measures the observability overhead on the batch
// path: "nil" runs with hooks disabled (the nil-check-only contract — this
// must stay within 2% of BenchmarkAnnotateAll/serial) and "active" runs
// with a live registry recording every span, counter, and gauge. Compare
// the two with `make bench-obs`.
func BenchmarkAnnotateAllObs(b *testing.B) {
	m := benchModel(b)
	corpus, err := GenerateCorpus("govuk", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		hooks *ObsHooks
	}{{"nil", nil}, {"active", NewObsHooks(NewObsRegistry())}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.AnnotateAll(corpus, BatchOptions{Parallelism: 1, Obs: bc.hooks})
			}
		})
	}
}

// BenchmarkAnnotateStream measures the bounded-memory streaming path end to
// end — incremental scan, split, sliding window, per-window classification —
// over a stacked multi-file input, reporting MB/s via SetBytes. Compare
// against BenchmarkAnnotateAll to see what the windowing costs.
func BenchmarkAnnotateStream(b *testing.B) {
	m := benchModel(b)
	var buf bytes.Buffer
	if _, _, err := datagen.WriteSized(&buf, datagen.Mendeley(), 4<<20); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := m.AnnotateStream(context.Background(), bytes.NewReader(data), StreamOptions{},
			func(LineAnnotation) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelLoad measures cold-start model deserialization for both
// serializations of the same trained model — the number strudel-serve pays
// on every restart. The binary container skips the JSON tree decode
// entirely, so its time is dominated by the structural re-validation and
// the eager forest compilation.
func BenchmarkModelLoad(b *testing.B) {
	m := benchModel(b)
	var jsonBuf, binBuf bytes.Buffer
	if err := m.Save(&jsonBuf, FormatJSON); err != nil {
		b.Fatal(err)
	}
	if err := m.Save(&binBuf, FormatBinary); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		data []byte
	}{{"json", jsonBuf.Bytes()}, {"binary", binBuf.Bytes()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LoadModel(bytes.NewReader(bc.data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
