// Command perfbench is the repository benchmark. It runs one workload
// against strudel's public API, checks the outputs, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 a separate traced run
// reports the per-layer ones. README.md in this directory lists every
// metric, its unit, and the layer it belongs to.
//
// Run it through run.sh, which builds it and strudel-serve from source:
//
//	bash perfbench/run.sh --workload batch-mixed --seed 1 --seconds 18 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of the metrics every workload reports, as BENCHMARK.json lists them.
// Each workload gives each name its own meaning; README.md has the table.
var (
	endToEndUnits = map[string]string{
		"setup_s":            "s",
		"files_per_s":        "1/s",
		"mb_per_s":           "MB/s",
		"line_accuracy":      "share",
		"cell_accuracy":      "share",
		"peak_live_heap_mib": "MiB",
	}
	perLayerUnits = map[string]string{
		"ingest.ms_per_mb":          "ms/MB",
		"dialect.detect_ms_per_mb":  "ms/MB",
		"dialect.split_ms_per_mb":   "ms/MB",
		"dialect.true_ratio":        "share",
		"features.line_us_per_row":  "us/row",
		"features.cell_us_per_cell": "us/cell",
		"features.allocs_per_cell":  "allocs/cell",
		"forest.line_us_per_row":    "us/row",
		"forest.cell_us_per_cell":   "us/cell",
		"pipeline.busy_ratio":       "share",
		"strudel.load_share":        "share",
		"strudel.train_s":           "s",
		"strudel.model_load_ms":     "ms",
		"trace.unattributed_share":  "share",
	}
)

// run is one workload run: its flags, its output, and its checks.
type run struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	work     string // scratch directory for model files

	// cal times the reference kernel; calSetup and calRun hold its
	// samples during set-up and during the timed part.
	cal              *calibrator
	calSetup, calRun []float64
	calErr           error

	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	lines             []string // human-readable report, printed before the JSON
}

// setE2E records an end-to-end metric (reported on timed runs).
func (r *run) setE2E(name string, v float64) {
	r.show(name, v, endToEndUnits[name])
	if !r.trace {
		r.metrics[name] = metric{v, endToEndUnits[name]}
	}
}

// setLayer records a per-layer metric (reported on traced runs).
func (r *run) setLayer(name string, v float64) {
	r.show(name, v, perLayerUnits[name])
	if r.trace {
		r.metrics[name] = metric{v, perLayerUnits[name]}
	}
}

// show adds a named value to the human-readable report only.
func (r *run) show(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("metric %-34s %14.6g %s", name, v, unit))
}

// note adds a free-form report line.
func (r *run) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// problem records an output check that failed; the run is then not correct.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.note("CHECK FAILED: %s", msg)
}

// ops records attempted and failed operations.
func (r *run) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// calibrate samples the reference kernel on workers goroutines, into the
// set-up samples or the timed part's.
func (r *run) calibrate(workers int, setup bool) {
	into := &r.calRun
	if setup {
		into = &r.calSetup
	}
	if err := r.cal.sample(workers, into); err != nil && r.calErr == nil {
		r.calErr = err
	}
}

// runSpeed is the machine's speed during the timed part (see calib.go),
// which divides every gated rate.
func (r *run) runSpeed() float64 {
	sp := speed(r.calRun)
	r.show("calibration.run_speed", sp, "x")
	return sp
}

// deadline returns when the timed part of a run that starts now must end.
func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.seconds) * time.Second)
}

var workloads = map[string]func(context.Context, *run) error{
	"batch-mixed":    runBatch,
	"stream-stacked": runStream,
	"serve-open":     runServe,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "batch-mixed, stream-stacked or serve-open")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 18, "how long the timed part of the run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		serveBin = flag.String("serve-bin", "", "strudel-serve binary (serve-open)")
		work     = flag.String("work", ".bench_build/work", "scratch directory inside the checkout")
		calib    = flag.Bool("calibrate", false, "serve reference-kernel timings on standard input (the benchmark starts itself with it)")
	)
	flag.Parse()
	if *calib {
		return calibrateMain()
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload batch-mixed|stream-stacked|serve-open --seed n --seconds n --trace 0|1")
		return 2
	}
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cal, err := startCalibrator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer cal.stop()

	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		serveBin: *serveBin, work: dir, metrics: map[string]metric{}, cal: cal,
	}
	st := newStamp(r)
	if err := fn(context.Background(), r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.calErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", r.calErr)
		return 1
	}
	if err := r.checkComplete(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stampJSON, err := json.Marshal(st)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("stamp %s\n", stampJSON)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	fmt.Printf("ops attempted=%d failed=%d\n", r.attempted, r.failed)
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// checkComplete verifies that the run set every metric of its kind: a
// missing one is a bug in this program, not a property of the code measured.
func (r *run) checkComplete() error {
	want := endToEndUnits
	if r.trace {
		want = perLayerUnits
	}
	var missing []string
	for name := range want {
		if _, ok := r.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s: metrics not measured: %v", r.workload, missing)
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	return nil
}
