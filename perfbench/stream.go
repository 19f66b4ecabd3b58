package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"strudel"
	"strudel/internal/dialect"
	"strudel/internal/ingest"
	"strudel/internal/obs"
)

// streamSegmentBytes is the size of each stacked WriteSized segment; the
// stream stacks three of them.
const streamSegmentBytes = 1 << 20

// memorySampleRows is how often the memory pass forces a collection and
// samples the live heap, in emitted lines.
const memorySampleRows = 2048

// streamInputs is the stream-stacked input and what the checks need.
type streamInputs struct {
	data []byte
	segs []segment
	gold labels
	lead int // leading empty lines the stream crops
	rows int // lines the stream annotates
}

func prepareStream(seed int64) (*streamInputs, error) {
	data, segs, gold, err := streamInput(seed, streamSegmentBytes)
	if err != nil {
		return nil, err
	}
	in := &streamInputs{data: data, segs: segs, gold: gold}
	// One annotated row per line: leading and trailing empty lines are
	// cropped. Generated cells never hold a newline, so rows are lines.
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		if len(bytes.Trim(line, ", \t")) == 0 {
			continue
		}
		if in.rows == 0 {
			in.lead = i
		}
		in.rows = i + 1 - in.lead
	}
	return in, nil
}

// streamOptions parses under the comma dialect every stacked segment is
// written in, so the measured parse is the one a user's file has.
func streamOptions(h *strudel.ObsHooks) strudel.StreamOptions {
	d := strudel.DefaultDialect
	return strudel.StreamOptions{Load: strudel.LoadOptions{ForceDialect: &d, Obs: h}}
}

// streamResult is the outcome of one AnnotateStream pass.
type streamResult struct {
	lines  int
	cells  int64
	digest string
	wall   time.Duration
	acc    accuracy
	emit   time.Duration
	err    error
}

// streamPass annotates the whole input once, recording emission bursts. It
// scores accuracy when score is set; sample, when set, runs on every
// memorySampleRows-th line.
func streamPass(ctx context.Context, m *strudel.Model, in *streamInputs, hooks *strudel.ObsHooks, score bool, sample func()) streamResult {
	var res streamResult
	d := newDigest()
	var classes []strudel.Class
	var cells [][]strudel.Class
	start := time.Now()
	burst, burstStart, lastExit := -1, time.Duration(0), time.Duration(0)
	emit := func(la strudel.LineAnnotation) error {
		entry := time.Since(start)
		if b := la.Row / strudel.DefaultStreamWindowLines; b != burst {
			if burst >= 0 {
				res.emit += lastExit - burstStart
			}
			burst, burstStart = b, entry
		}
		d.int(la.Row)
		d.int(int(la.Class))
		for _, c := range la.Cells {
			d.int(int(c))
		}
		for _, p := range la.Probabilities {
			d.float(p)
		}
		for _, f := range la.Fields {
			d.str(f)
		}
		res.lines++
		res.cells += int64(len(la.Cells))
		if score {
			classes = append(classes, la.Class)
			cells = append(cells, la.Cells)
		}
		if sample != nil && la.Row%memorySampleRows == 0 {
			sample()
		}
		lastExit = time.Since(start)
		return nil
	}
	_, res.err = m.AnnotateStream(ctx, bytes.NewReader(in.data), streamOptions(hooks), emit)
	res.wall = time.Since(start)
	if burst >= 0 {
		res.emit += lastExit - burstStart
	}
	res.digest = d.sum()
	if score {
		g := labels{lines: in.gold.lines[in.lead:], cells: in.gold.cells[in.lead:]}
		g.lines, g.cells = g.lines[:in.rows], g.cells[:in.rows]
		res.acc.add(g, classes, cells)
	}
	return res
}

func runStream(ctx context.Context, r *run) error {
	s, err := setUp(ctx, r)
	if err != nil {
		return err
	}
	s.report(r, nil)
	in, err := prepareStream(r.seed)
	if err != nil {
		return err
	}
	for _, seg := range in.segs {
		r.note("input segment %s: %d bytes, %d stacked files", seg.profile, len(seg.data), seg.files)
	}
	r.note("inputs %d bytes, %d lines annotated", len(in.data), in.rows)
	if r.trace {
		return traceStream(ctx, r, s.model, in)
	}
	return timeStream(ctx, r, s.model, in)
}

// checkPass counts one pass as an operation and checks its output.
func checkPass(r *run, in *streamInputs, res streamResult, want string) {
	r.ops(1, 0)
	switch {
	case res.err != nil:
		r.ops(0, 1)
		r.note("stream error: %v", res.err)
	case res.lines != in.rows:
		r.problem("stream emitted %d lines, the input has %d", res.lines, in.rows)
	case want != "" && res.digest != want:
		r.problem("stream output differs between passes")
	}
}

// timeStream measures the end-to-end stream metrics with every hook nil.
func timeStream(ctx context.Context, r *run, m *strudel.Model, in *streamInputs) error {
	// Passes repeat until the deadline, at least three. The figures are
	// the best pass's: interference from other work on the machine only
	// ever adds time, and a stall of a few seconds spoils one or two
	// passes, not all of them.
	deadline := r.deadline()
	var first streamResult
	var wall time.Duration
	passes := 0
	for ; passes < 3 || time.Now().Before(deadline); passes++ {
		r.calibrate(1, false) // the stream runs on one goroutine
		res := streamPass(ctx, m, in, nil, passes == 0, nil)
		if passes == 0 {
			first, wall = res, res.wall
		}
		checkPass(r, in, res, first.digest)
		wall = min(wall, res.wall)
	}
	mbPerS := float64(len(in.data)) / megabyte / wall.Seconds()
	r.note("passes %d", passes)
	sp := r.runSpeed()
	r.setE2E("mb_per_s", mbPerS/sp)
	r.setE2E("files_per_s", 1/wall.Seconds()/sp)
	checkAccuracy(r, &first.acc)
	r.show("stream.mb_per_s", mbPerS, "MB/s")

	// Memory pass, after timing: live heap after a forced GC, sampled
	// every memorySampleRows emitted lines, above the pre-stream baseline.
	base := liveHeap()
	var peak uint64
	res := streamPass(ctx, m, in, nil, false, func() {
		if h := liveHeap(); h > peak {
			peak = h
		}
	})
	checkPass(r, in, res, first.digest)
	heap := float64(peak-min(peak, base)) / mebibyte
	r.setE2E("peak_live_heap_mib", heap)
	r.show("stream.peak_live_heap_mib", heap, "MiB")
	r.note("digest stream-stacked %s", first.digest)
	return nil
}

// sniffPrefix is the part of a segment AnnotateStream's dialect detection
// would read: whole lines up to DefaultDialectSniffBytes.
func sniffPrefix(data []byte) []byte {
	n := 0
	for n < len(data) && n < defaultSniffBytes {
		i := bytes.IndexByte(data[n:], '\n')
		if i < 0 {
			return data
		}
		n += i + 1
	}
	return data[:n]
}

// traceStream is the traced stream-stacked run: one pass observed through
// the public Load.Obs hook, with layers the stream does not span (ingest,
// detection, splitting) timed by calling their exported functions on the
// same bytes.
func traceStream(ctx context.Context, r *run, m *strudel.Model, in *streamInputs) error {
	plain := streamPass(ctx, m, in, nil, false, nil)
	checkPass(r, in, plain, "")

	ac := newAllocCounter()
	spans := map[obs.Stage]time.Duration{}
	counts := map[obs.Stage]int{}
	var featAllocs, allocAt uint64
	reg := strudel.NewObsRegistry()
	hooks := &obs.Hooks{
		Registry: reg,
		OnSpanStart: func(st obs.Stage) {
			if st == obs.StageLineFeatures || st == obs.StageCellFeatures {
				allocAt = ac.read()
			}
		},
		OnSpanEnd: func(st obs.Stage, d time.Duration) {
			spans[st] += d
			counts[st]++
			if st == obs.StageLineFeatures || st == obs.StageCellFeatures {
				featAllocs += ac.read() - allocAt
			}
		},
	}
	a0 := ac.read()
	res := streamPass(ctx, m, in, hooks, false, nil)
	allocs := ac.read() - a0
	checkPass(r, in, res, plain.digest)
	snap := reg.Snapshot()
	if w, _ := snap.Counter(obs.MStreamWindows); int(w) != counts[obs.StageStreamWindow] {
		r.problem("stream/windows counter %d, window spans %d", w, counts[obs.StageStreamWindow])
	}
	if n, _ := snap.Counter(obs.MStreamLines); int(n) != res.lines {
		r.problem("stream/lines counter %d, lines emitted %d", n, res.lines)
	}

	wall := spans[obs.StageStream]
	fill, window := spans[obs.StageStreamFill], spans[obs.StageStreamWindow]
	rows, cells := float64(res.lines), float64(res.cells)
	r.setLayer("features.line_us_per_row", us(spans[obs.StageLineFeatures])/rows)
	r.setLayer("forest.line_us_per_row", us(spans[obs.StageLineProbs]-spans[obs.StageLineFeatures])/rows)
	r.setLayer("features.cell_us_per_cell", us(spans[obs.StageCellFeatures])/cells)
	r.setLayer("forest.cell_us_per_cell", us(spans[obs.StageCellClassify]-spans[obs.StageCellFeatures])/cells)
	r.setLayer("features.allocs_per_cell", float64(featAllocs)/cells)
	// The stream classifies on its caller's goroutine: one worker.
	r.setLayer("pipeline.busy_ratio", window.Seconds()/wall.Seconds())
	// The stream_fill span covers reading, splitting and emission; the
	// emission bursts are measured in the callback and taken out.
	r.setLayer("strudel.load_share", (fill-res.emit).Seconds()/wall.Seconds())
	r.setLayer("trace.unattributed_share", 1-(fill+window).Seconds()/wall.Seconds())
	r.show("stream.fill_share", (fill-res.emit).Seconds()/wall.Seconds(), "share")
	r.show("stream.window_ms", ms(window)/float64(counts[obs.StageStreamWindow]), "ms")
	r.show("stream.emit_share", res.emit.Seconds()/wall.Seconds(), "share")
	r.show("stream.allocs_per_line", float64(allocs)/rows, "allocs/line")

	// Layers outside the stream's spans, on the same bytes.
	mb := float64(len(in.data)) / megabyte
	t0 := time.Now()
	norm, err := ingest.Normalize(in.data, ingest.Options{MaxBytes: -1})
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("normalize stream input: %w", err)
	}
	dialect.SplitLimit(norm.Text, dialect.Default, ingest.DefaultMaxCellsPerLine)
	t2 := time.Now()
	r.setLayer("ingest.ms_per_mb", ms(t1.Sub(t0))/mb)
	r.setLayer("dialect.split_ms_per_mb", ms(t2.Sub(t1))/mb)
	var detect time.Duration
	sniffed, comma := 0, 0
	for _, seg := range in.segs {
		prefix := sniffPrefix(seg.data)
		t := time.Now()
		det, err := dialect.DetectBest(string(prefix))
		detect += time.Since(t)
		if err != nil {
			return fmt.Errorf("detect %s: %w", seg.profile, err)
		}
		sniffed += len(prefix)
		if det.Dialect.Delimiter == ',' {
			comma++
		}
		r.note("segment %s: sniff prefix detects %s (score %.4f)", seg.profile, det.Dialect, det.Score)
	}
	trueRatio := float64(comma) / float64(len(in.segs))
	r.setLayer("dialect.detect_ms_per_mb", ms(detect)/(float64(sniffed)/megabyte))
	r.setLayer("dialect.true_ratio", trueRatio)
	r.show("dialect.stacked_true_ratio", trueRatio, "share")
	r.note("digest stream-stacked %s", plain.digest)
	return nil
}
