package core

import (
	"testing"

	"strudel/internal/datagen"
	"strudel/internal/ml"
	"strudel/internal/ml/forest"
	"strudel/internal/pipeline"
	"strudel/internal/table"
)

// BenchmarkPredictCorpus times the compiled Strudel^L and Strudel^C forests
// on the feature blocks the annotation pipeline actually stages: one line
// block and one cell block per table, each classified in one
// PredictProbaMatrix call. Unlike the toy BenchmarkPredictMatrix in the
// forest package, the forests have the shape and leaf purity of a
// production model: 100 trees trained on SAUS+CIUS+DeEx at scale 0.2 with
// a 2000-cell cap per file and seed 1 (the strudel-train default shape).
// The inputs are all six datagen profiles at scale 0.5, generated from
// seeds other than the profile defaults so no input table is a training
// table. `make bench-predict` runs it.
func BenchmarkPredictCorpus(b *testing.B) {
	m := corpusBenchModel(b)
	var lines, cells []*ml.Matrix
	for _, name := range []string{"govuk", "saus", "cius", "deex", "mendeley", "troy"} {
		p := datagen.Profiles()[name].Scale(0.5)
		p.Seed = -p.Seed
		for _, t := range datagen.Generate(p).Files {
			l, c := corpusBlocks(m, t)
			lines = append(lines, l)
			cells = append(cells, c)
		}
	}
	for _, bc := range []struct {
		name   string
		p      forest.Predictor
		blocks []*ml.Matrix
	}{
		{"line", m.Line.predictor(), lines},
		{"cell", m.predictor(), cells},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rows, widest := 0, 0
			for _, x := range bc.blocks {
				rows += x.Rows
				widest = max(widest, x.Rows)
			}
			out := make([]float64, widest*bc.p.Classes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range bc.blocks {
					bc.p.PredictProbaMatrix(x, out)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// corpusBenchModel trains the benchmark's cell model (and with it the
// embedded line model).
func corpusBenchModel(b *testing.B) *CellModel {
	b.Helper()
	var train []*table.Table
	for _, name := range []string{"saus", "cius", "deex"} {
		c, err := datagen.GenerateDataset(name, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		train = append(train, c.Files...)
	}
	opts := DefaultCellTrainOptions()
	opts.Forest.NumTrees = 100
	opts.Line.Forest.NumTrees = 100
	opts.Forest.Seed = 1
	opts.MaxCellsPerFile = 2000
	m, err := TrainCell(train, opts)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// corpusBlocks stages t's line and cell feature blocks the way the
// prediction stages do: non-empty lines and non-empty cells only, with the
// models' feature masks applied.
func corpusBlocks(m *CellModel, t *table.Table) (lines, cells *ml.Matrix) {
	a := pipeline.New(t)
	var lineRows [][]float64
	for r, x := range a.LineFeatures(m.Line.Opts) {
		if !t.IsEmptyLine(r) {
			lineRows = append(lineRows, x)
		}
	}
	fs := m.computeCellFeatures(a)
	var cellRows [][]float64
	for r := range fs {
		for c, x := range fs[r] {
			if !t.IsEmptyCell(r, c) {
				cellRows = append(cellRows, x)
			}
		}
	}
	return stageBlock(lineRows, m.Line.Mask), stageBlock(cellRows, extendMask(m.Mask, fs))
}

func stageBlock(rows [][]float64, mask []int) *ml.Matrix {
	x := new(ml.Matrix)
	if len(rows) == 0 {
		return x
	}
	cols := len(rows[0])
	if mask != nil {
		cols = len(mask)
	}
	x.Reset(len(rows), cols)
	for r, row := range rows {
		if mask == nil {
			x.SetRow(r, row)
		} else {
			x.SetRowMasked(r, row, mask)
		}
	}
	return x
}
