package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"strudel"
	"strudel/internal/core"
)

// The benchmark model has the strudel-train default shape. It is trained
// from fixed-seed corpora; workload inputs use other seeds, so no workload
// file is a training file.
const (
	modelTrees        = 100
	modelMaxCells     = 2000
	modelSeed         = 1
	modelCorpusScale  = 0.2
	setupRepetitions  = 3
	setupCalibrations = 3 // reference-kernel samples before each repetition
	modelDescription  = "trees=100 max_cells_per_file=2000 corpora=saus,cius,deex@0.2 seed=1 format=binary"
	megabyte          = 1e6
	mebibyte          = 1 << 20
	defaultSniffBytes = strudel.DefaultDialectSniffBytes
)

var modelCorpora = []string{"saus", "cius", "deex"}

// stamp identifies what a result was measured on.
type stamp struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        bool               `json:"trace"`
	Commit       string             `json:"commit"`
	SourceSHA256 string             `json:"source_sha256"`
	CPU          string             `json:"cpu"`
	NProc        int                `json:"nproc"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	GoVersion    string             `json:"go_version"`
	Model        string             `json:"model"`
	ServeRates   map[string]float64 `json:"serve_rates_per_s"`
	ServeCapRef  float64            `json:"serve_capacity_ref_per_s"`
	ServeLimitMs float64            `json:"serve_p99_limit_ms"`
	CalibRefMs   float64            `json:"calibration_ref_ms"`
}

func newStamp(r *run) stamp {
	rates := map[string]float64{}
	for _, s := range serveSteps {
		rates[s.name] = s.rate
	}
	return stamp{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.trace,
		Commit: commit(), SourceSHA256: sourceDigest("."), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Model: modelDescription, ServeRates: rates, ServeCapRef: serveCapacityRef, ServeLimitMs: serveP99LimitMs,
		CalibRefMs: calibrationRefMs,
	}
}

// commit is the VCS revision Go stamped into the binary, which exists only
// when the benchmark was built inside a git work tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	if rev == "" {
		return "unknown (not built in a git work tree; see source_sha256)"
	}
	return rev + dirty
}

// sourceDigest hashes every Go source and go.mod under root, so a result
// names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// trainOptions is the benchmark model's configuration.
func trainOptions() strudel.TrainOptions {
	return strudel.TrainOptions{Trees: modelTrees, Seed: modelSeed, MaxCellsPerFile: modelMaxCells}
}

// coreTrainOptions are the options strudel.TrainContext derives from
// trainOptions. The traced batch pass trains its core models with them and
// proves the match through the output digest.
func coreTrainOptions() core.CellTrainOptions {
	o := core.DefaultCellTrainOptions()
	o.Forest.NumTrees = modelTrees
	o.Line.Forest.NumTrees = modelTrees
	o.Forest.Seed = modelSeed
	o.MaxCellsPerFile = modelMaxCells
	return o
}

func trainingCorpus() ([]*strudel.Table, error) {
	var files []*strudel.Table
	for _, name := range modelCorpora {
		fs, err := strudel.GenerateCorpus(name, modelCorpusScale)
		if err != nil {
			return nil, err
		}
		files = append(files, fs...)
	}
	return files, nil
}

// setup is the outcome of the repeated model set-up.
type setup struct {
	model    *strudel.Model
	path     string           // the saved binary model
	corpus   []*strudel.Table // the training corpus, kept for the traced pass
	setupS   []float64        // per repetition: train + save + load, seconds
	trainS   []float64
	loadMs   []float64
	modelSum string
}

// setUp trains, saves and reloads the model setupRepetitions times. Every
// repetition must produce the same artifact bytes; the last loaded model is
// the one the workload uses. Corpus generation is not timed.
func setUp(ctx context.Context, r *run) (*setup, error) {
	corpus, err := trainingCorpus()
	if err != nil {
		return nil, err
	}
	s := &setup{corpus: corpus, path: filepath.Join(r.work, "bench.model")}
	for i := 0; i < setupRepetitions; i++ {
		for k := 0; k < setupCalibrations; k++ {
			r.calibrate(runtime.NumCPU(), true)
		}
		t0 := time.Now()
		m, err := strudel.TrainContext(ctx, corpus, trainOptions())
		if err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		t1 := time.Now()
		if err := m.SaveFile(s.path, strudel.FormatBinary); err != nil {
			return nil, fmt.Errorf("save model: %w", err)
		}
		t2 := time.Now()
		loaded, err := strudel.LoadModelFile(s.path)
		if err != nil {
			return nil, fmt.Errorf("load model: %w", err)
		}
		t3 := time.Now()
		s.setupS = append(s.setupS, t3.Sub(t0).Seconds())
		s.trainS = append(s.trainS, t1.Sub(t0).Seconds())
		s.loadMs = append(s.loadMs, t3.Sub(t2).Seconds()*1e3)

		sum, err := fileSHA256(s.path)
		if err != nil {
			return nil, err
		}
		if s.modelSum != "" && sum != s.modelSum {
			r.problem("set-up repetition %d saved a different model (%s, first %s)", i, sum, s.modelSum)
		}
		s.modelSum, s.model = sum, loaded
	}
	r.note("model %s sha256=%s", modelDescription, s.modelSum)
	return s, nil
}

// report records the set-up metrics shared by every workload; extra holds
// per-repetition seconds added to set-up (the serve child's start).
func (s *setup) report(r *run, extra []float64) {
	total := append([]float64(nil), s.setupS...)
	for i := range total {
		if i < len(extra) {
			total[i] += extra[i]
		}
	}
	sp := speed(r.calSetup)
	r.show("calibration.setup_speed", sp, "x")
	r.show("setup_s.wall", median(total), "s")
	r.setE2E("setup_s", median(total)*sp)
	r.setLayer("strudel.train_s", median(s.trainS))
	r.setLayer("strudel.model_load_ms", median(s.loadMs))
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
