package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"strudel"
	"strudel/internal/core"
	"strudel/internal/dialect"
	"strudel/internal/ingest"
	"strudel/internal/obs"
	"strudel/internal/pipeline"
	"strudel/internal/table"
)

// batchSets is how many distinct 164-file sets a batch-mixed run cycles
// through. Several sets keep the run's result from hanging on a few large
// files of one draw.
const batchSets = 8

// memorySets is how many sets the batch memory pass holds at once.
const memorySets = 4

// Accuracy floors: outputs below them are reported as not correct. They
// sit far below what the seed-commit model reaches and only catch a
// pipeline that returns garbage.
const (
	minLineAccuracy = 0.7
	minCellAccuracy = 0.6
)

func runBatch(ctx context.Context, r *run) error {
	s, err := setUp(ctx, r)
	if err != nil {
		return err
	}
	s.report(r, nil)
	sets := make([][]file, batchSets)
	files, mb := 0, 0.0
	for k := range sets {
		sets[k] = batchSet(r.seed, k)
		for _, f := range sets[k] {
			files++
			mb += float64(len(f.data)) / megabyte
		}
	}
	r.note("inputs %d sets, %d files, %.2f MB", batchSets, files, mb)
	if r.trace {
		return traceBatch(ctx, r, s, sets)
	}
	return timeBatch(ctx, r, s.model, sets)
}

// batchRun is the outcome of one set through the batch path.
type batchRun struct {
	digest      string
	acc         accuracy
	failed      int64
	load, total time.Duration
}

// batchRound runs one set the way the strudel CLI runs a batch: LoadBytes
// on each file in order with dialect detection, then AnnotateAllContext
// over the loaded tables on nproc workers. Load and annotation failures are
// counted, never skipped silently. hooks observes the annotation (nil in
// timed rounds).
func batchRound(ctx context.Context, m *strudel.Model, set []file, hooks *strudel.ObsHooks) batchRun {
	var out batchRun
	start := time.Now()
	tables := make([]*strudel.Table, 0, len(set))
	dialects := make([]string, len(set))
	loaded := make([]int, 0, len(set)) // set index of each loaded table
	for i, f := range set {
		t, d, err := strudel.LoadBytes(f.data, strudel.LoadOptions{})
		if err != nil {
			out.failed++
			continue
		}
		t.Name = f.name
		tables = append(tables, t)
		dialects[i] = d.String()
		loaded = append(loaded, i)
	}
	out.load = time.Since(start)
	anns := m.AnnotateAllContext(ctx, tables, strudel.BatchOptions{Parallelism: runtime.NumCPU(), Obs: hooks})
	out.total = time.Since(start)

	d := newDigest()
	next := 0
	for i, f := range set {
		d.str(f.name)
		if next >= len(loaded) || loaded[next] != i {
			d.str("load error")
			continue
		}
		ann := anns[next]
		next++
		if ann.Err != nil {
			out.failed++
		}
		d.annotation(ann, dialects[i])
		out.acc.add(f.gold, ann.Lines, ann.Cells)
	}
	out.digest = d.sum()
	return out
}

// timeBatch measures the end-to-end batch metrics with every hook nil.
func timeBatch(ctx context.Context, r *run, m *strudel.Model, sets [][]file) error {
	deadline := r.deadline()

	// The run repeats a cycle, every set once through the batch path,
	// until the deadline and at least twice. A set's time is its best
	// round: interference from other work on the machine only ever adds
	// time, and rounds of one set a cycle apart rarely both meet it. The
	// rates divide all files and bytes by the sum of the sets' best times,
	// so every set weighs in.
	times := make([]float64, len(sets))
	first := make([]batchRun, len(sets))
	var acc accuracy
	var attempted, failed int64
	cycles := 0
	for ; cycles < 2 || time.Now().Before(deadline); cycles++ {
		for k, set := range sets {
			r.calibrate(runtime.NumCPU(), false)
			br := batchRound(ctx, m, set, nil)
			attempted += int64(len(set))
			failed += br.failed
			if cycles == 0 || br.total.Seconds() < times[k] {
				times[k] = br.total.Seconds()
			}
			if cycles == 0 {
				first[k] = br
				acc.merge(br.acc)
			} else if br.digest != first[k].digest {
				r.problem("set %d: cycle %d output differs from the first", k, cycles)
			}
		}
	}
	r.ops(attempted, failed)
	var files, bytes int
	var wall float64
	for k, set := range sets {
		files += len(set)
		for _, f := range set {
			bytes += len(f.data)
		}
		wall += times[k]
	}

	r.note("cycles %d", cycles)
	sp := r.runSpeed()
	r.setE2E("files_per_s", float64(files)/wall/sp)
	r.setE2E("mb_per_s", float64(bytes)/megabyte/wall/sp)
	checkAccuracy(r, &acc)
	r.show("batch.files_per_s", float64(files)/wall, "1/s")
	r.show("batch.line_accuracy", acc.lineShare(), "share")
	r.show("batch.cell_accuracy", acc.cellShare(), "share")

	// Memory pass, after timing: the live heap the loaded and annotated
	// sets hold, after a forced GC, above the pre-pass baseline.
	base := liveHeap()
	var tables []*strudel.Table
	var anns []*strudel.Annotation
	for _, set := range sets[:memorySets] {
		var loaded []*strudel.Table
		for _, f := range set {
			if t, _, err := strudel.LoadBytes(f.data, strudel.LoadOptions{}); err == nil {
				loaded = append(loaded, t)
			}
		}
		anns = append(anns, m.AnnotateAllContext(ctx, loaded, strudel.BatchOptions{Parallelism: runtime.NumCPU()})...)
		tables = append(tables, loaded...)
	}
	peak := liveHeap()
	runtime.KeepAlive(tables)
	runtime.KeepAlive(anns)
	r.setE2E("peak_live_heap_mib", float64(peak-min(peak, base))/mebibyte)

	r.note("digest batch-mixed %s", setsDigest(first))
	return nil
}

func checkAccuracy(r *run, acc *accuracy) {
	r.setE2E("line_accuracy", acc.lineShare())
	r.setE2E("cell_accuracy", acc.cellShare())
	if acc.lineShare() < minLineAccuracy || acc.cellShare() < minCellAccuracy {
		r.problem("accuracy line %.3f cell %.3f below the floors %.2f / %.2f",
			acc.lineShare(), acc.cellShare(), minLineAccuracy, minCellAccuracy)
	}
}

// setsDigest combines the per-set digests in set order.
func setsDigest(runs []batchRun) string {
	d := newDigest()
	for _, br := range runs {
		d.str(br.digest)
	}
	return d.sum()
}

// liveHeap is HeapAlloc right after a forced collection. The second
// collection empties the sync.Pool victim caches the first one leaves.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocCounter reads the process's cumulative heap allocation count.
type allocCounter struct{ sample []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.sample)
	return a.sample[0].Value.Uint64()
}

// layerStats accumulates the traced layer-by-layer pass.
type layerStats struct {
	ingest, detect, split                      time.Duration
	lineFeat, lineForest, cellFeat, cellForest time.Duration
	bytes                                      int64
	rows, cells                                int64
	featAllocs                                 uint64
	detected, detectedTrue                     int
}

func (l *layerStats) attributed() time.Duration {
	return l.ingest + l.detect + l.split + l.lineFeat + l.lineForest + l.cellFeat + l.cellForest
}

// unattributed is the share of the pass's wall time outside the timed
// layer calls.
func (l *layerStats) unattributed(wall time.Duration) float64 {
	return 1 - l.attributed().Seconds()/wall.Seconds()
}

// report records the layer metrics the pass measured.
func (l *layerStats) report(r *run) {
	mb := float64(l.bytes) / megabyte
	r.setLayer("ingest.ms_per_mb", ms(l.ingest)/mb)
	r.setLayer("dialect.detect_ms_per_mb", ms(l.detect)/mb)
	r.setLayer("dialect.split_ms_per_mb", ms(l.split)/mb)
	r.setLayer("dialect.true_ratio", ratio(float64(l.detectedTrue), float64(l.detected)))
	r.setLayer("features.line_us_per_row", us(l.lineFeat)/float64(l.rows))
	r.setLayer("features.cell_us_per_cell", us(l.cellFeat)/float64(l.cells))
	r.setLayer("features.allocs_per_cell", float64(l.featAllocs)/float64(l.cells))
	r.setLayer("forest.line_us_per_row", us(l.lineForest)/float64(l.rows))
	r.setLayer("forest.cell_us_per_cell", us(l.cellForest)/float64(l.cells))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// layerPass runs one file through every layer's exported function in
// pipeline order on one pipeline.Artifacts, timing each call. It
// reproduces LoadBytes followed by Model.Annotate with the default load
// options, so the annotation it returns must equal the public path's.
func layerPass(data []byte, line *core.LineModel, cell *core.CellModel, l *layerStats, ac *allocCounter) (*strudel.Annotation, string, error) {
	l.bytes += int64(len(data))
	t0 := time.Now()
	res, err := ingest.Normalize(data, ingest.Options{})
	t1 := time.Now()
	l.ingest += t1.Sub(t0)
	if err != nil {
		return nil, "", err
	}
	det, err := dialect.DetectBest(res.Text)
	t2 := time.Now()
	l.detect += t2.Sub(t1)
	if err != nil {
		return nil, "", err
	}
	l.detected++
	if det.Dialect.Delimiter == ',' {
		l.detectedTrue++
	}

	// The confidence floor and provenance bookkeeping of LoadBytes.
	prov := res.Provenance
	prov.DialectScore, prov.DialectMargin = det.Score, det.Margin
	d := det.Dialect
	if det.Score < strudel.DefaultMinDialectScore {
		d = dialect.Default
		prov.DialectFallback = true
		prov.Trip(ingest.GuardDialectScore)
	}
	prov.Dialect = d.String()
	t3 := time.Now()
	rows, dropped := dialect.SplitLimit(res.Text, d, ingest.DefaultMaxCellsPerLine)
	if dropped > 0 {
		prov.CellsDropped = dropped
		prov.Trip(ingest.GuardCellsDropped)
	}
	t := table.FromRows(rows).Crop()
	t.Provenance = &prov
	t4 := time.Now()
	l.split += t4.Sub(t3)
	l.rows += int64(t.Height())
	l.cells += int64(t.Height() * t.Width())

	a := pipeline.New(t)
	defer a.ReleaseScratch()
	al0 := ac.read()
	t5 := time.Now()
	a.LineFeatures(line.Opts)
	t6 := time.Now()
	al1 := ac.read()
	lines := line.ClassifyWithArtifacts(a)
	lineProbs := line.ProbabilitiesWithArtifacts(a)
	al2 := ac.read()
	t7 := time.Now()
	fs := a.Shared().CellFeatures(lineProbs, cell.Opts)
	t8 := time.Now()
	al3 := ac.read()
	a.CellFeatures(cell, func(*pipeline.Artifacts) [][][]float64 { return fs })
	cells := cell.ClassifyWithArtifacts(a)
	t9 := time.Now()
	l.lineFeat += t6.Sub(t5)
	l.lineForest += t7.Sub(t6)
	l.cellFeat += t8.Sub(t7)
	l.cellForest += t9.Sub(t8)
	l.featAllocs += (al1 - al0) + (al3 - al2)

	ann := &strudel.Annotation{
		Lines:             lines,
		Cells:             cells,
		LineProbabilities: lineProbs,
		Provenance:        &prov,
		Degraded:          prov.DegradedReasons(),
	}
	return ann, d.String(), nil
}

// traceBatch is the traced batch-mixed run. It walks every file through
// the layers serially, then runs each set once more through the public
// batch path with the pool observed; both must produce the timed run's
// digest.
func traceBatch(ctx context.Context, r *run, s *setup, sets [][]file) error {
	cm, err := core.TrainCellContext(ctx, s.corpus, coreTrainOptions())
	if err != nil {
		return fmt.Errorf("train core models: %w", err)
	}
	if cm.Column != nil || cm.PostProcess {
		return fmt.Errorf("core models carry stages the layer pass does not time")
	}
	var l layerStats
	ac := newAllocCounter()
	layerRuns := make([]batchRun, len(sets))
	var attempted, failed int64
	start := time.Now()
	for k, set := range sets {
		d := newDigest()
		for _, f := range set {
			attempted++
			d.str(f.name)
			ann, dia, err := layerPass(f.data, cm.Line, cm, &l, ac)
			if err != nil {
				failed++
				d.str("load error")
				continue
			}
			d.annotation(ann, dia)
		}
		layerRuns[k].digest = d.sum()
	}
	l.report(r)
	r.setLayer("trace.unattributed_share", l.unattributed(time.Since(start)))

	// The public path under observation: worker busy time from the
	// annotate_file spans, load share from the serial LoadBytes loop.
	var busy atomic.Int64
	hooks := &obs.Hooks{OnSpanEnd: func(st obs.Stage, d time.Duration) {
		if st == obs.StageAnnotateFile {
			busy.Add(int64(d))
		}
	}}
	publicRuns := make([]batchRun, len(sets))
	var load, annotate time.Duration
	for k, set := range sets {
		br := batchRound(ctx, s.model, set, hooks)
		attempted += int64(len(set))
		failed += br.failed
		load += br.load
		annotate += br.total - br.load
		publicRuns[k] = batchRun{digest: br.digest}
	}
	r.ops(attempted, failed)
	workers := runtime.NumCPU()
	r.setLayer("pipeline.busy_ratio", float64(busy.Load())/(float64(workers)*float64(annotate)))
	r.setLayer("strudel.load_share", load.Seconds()/(load+annotate).Seconds())

	layerDigest, publicDigest := setsDigest(layerRuns), setsDigest(publicRuns)
	if layerDigest != publicDigest {
		r.problem("layer-pass digest %s differs from the public batch path %s", layerDigest, publicDigest)
	}
	r.note("digest batch-mixed %s", publicDigest)
	return nil
}
