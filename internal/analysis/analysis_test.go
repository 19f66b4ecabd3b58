package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureLoader returns a loader rooted at the fixture pseudo-module.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	return NewLoader(root, "fixture")
}

// wantRE marks fixture lines that expect a diagnostic of the named check.
var wantRE = regexp.MustCompile(`// want (\w+)`)

// expectedFindings scans a fixture package directory for `// want <check>`
// markers and returns the expected (file:line, check) set.
func expectedFindings(t *testing.T, l *Loader, importPath string) map[string]bool {
	t.Helper()
	dir := filepath.Join(l.ModuleRoot, strings.TrimPrefix(importPath, "fixture/"))
	names, err := goFilesIn(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRE.FindStringSubmatch(sc.Text()); m != nil {
				want[fmt.Sprintf("%s:%d %s", path, line, m[1])] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// checkFixture runs analyzers over one fixture package and requires the
// diagnostics to match the // want markers exactly.
func checkFixture(t *testing.T, importPath string, analyzers []*Analyzer) {
	t.Helper()
	l := fixtureLoader(t)
	diags, err := Run(l, []string{importPath}, analyzers)
	if err != nil {
		t.Fatalf("Run(%s): %v", importPath, err)
	}
	want := expectedFindings(t, l, importPath)
	got := map[string]bool{}
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Check)] = true
	}
	for key := range want {
		if !got[key] {
			t.Errorf("missing expected finding at %s", key)
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Check)
		if !want[key] {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}

func TestNondeterminismFixture(t *testing.T) {
	checkFixture(t, "fixture/nondet", []*Analyzer{Nondeterminism})
}

func TestNondeterminismExemptsMainPackages(t *testing.T) {
	checkFixture(t, "fixture/nondetmain", []*Analyzer{Nondeterminism})
}

func TestFloatCmpFixture(t *testing.T) {
	checkFixture(t, "fixture/floatcmp", []*Analyzer{FloatCmp})
}

func TestErrCheckFixture(t *testing.T) {
	checkFixture(t, "fixture/internal/errcheck", []*Analyzer{ErrCheck})
}

func TestErrCheckScopedToInternalAndCmd(t *testing.T) {
	checkFixture(t, "fixture/errcheckout", []*Analyzer{ErrCheck})
}

func TestPanicPathFixture(t *testing.T) {
	checkFixture(t, "fixture/panicpath", []*Analyzer{PanicPath})
}

func TestPanicPathExemptsMainPackages(t *testing.T) {
	checkFixture(t, "fixture/panicpathmain", []*Analyzer{PanicPath})
}

func TestLockCheckFixture(t *testing.T) {
	checkFixture(t, "fixture/lockcheck", []*Analyzer{LockCheck})
}

func TestGoroutineCaptureFixture(t *testing.T) {
	checkFixture(t, "fixture/gocapture", []*Analyzer{GoroutineCapture})
}

func TestSharedWriteFixture(t *testing.T) {
	checkFixture(t, "fixture/sharedwrite", []*Analyzer{SharedWrite})
}

func TestSharedWriteExemptsMainPackages(t *testing.T) {
	checkFixture(t, "fixture/sharedwritemain", []*Analyzer{SharedWrite})
}

func TestLockCheckCrossPackageFixture(t *testing.T) {
	checkFixture(t, "fixture/lockxp", []*Analyzer{LockCheck})
}

func TestCtxFlowFixture(t *testing.T) {
	checkFixture(t, "fixture/ctxflow", []*Analyzer{CtxFlow})
}

func TestCtxFlowMainPackageFixture(t *testing.T) {
	checkFixture(t, "fixture/ctxflowmain", []*Analyzer{CtxFlow})
}

func TestErrFlowFixture(t *testing.T) {
	checkFixture(t, "fixture/errflow", []*Analyzer{ErrFlow})
}

func TestRescLeakFixture(t *testing.T) {
	checkFixture(t, "fixture/rescleak", []*Analyzer{RescLeak})
}

func TestRescLeakCrossPackageFixture(t *testing.T) {
	checkFixture(t, "fixture/resxp", []*Analyzer{RescLeak})
}

func TestRescLeakHelperPackageIsClean(t *testing.T) {
	checkFixture(t, "fixture/ressub", []*Analyzer{RescLeak})
}

func TestLostCancelFixture(t *testing.T) {
	checkFixture(t, "fixture/lostcancel", []*Analyzer{LostCancel})
}

func TestGoroLeakFixture(t *testing.T) {
	checkFixture(t, "fixture/goroleak", []*Analyzer{GoroLeak})
}

func TestHotAllocFixture(t *testing.T) {
	checkFixture(t, "fixture/hotingest", []*Analyzer{HotAlloc})
}

func TestPipelineFixtureIsClean(t *testing.T) {
	// The fixture worker pool itself must not trip the concurrency checks.
	checkFixture(t, "fixture/pipeline", []*Analyzer{LockCheck, GoroutineCapture, SharedWrite})
}

func TestDeprecatedFixture(t *testing.T) {
	checkFixture(t, "fixture/deprecated", []*Analyzer{Deprecated})
}

func TestDeprecatedCrossPackageFixture(t *testing.T) {
	checkFixture(t, "fixture/deprecatedx", []*Analyzer{Deprecated})
}

func TestFeatureParityCleanFixture(t *testing.T) {
	checkFixture(t, "fixture/paritygood", []*Analyzer{FeatureParity})
}

func TestFeatureParityCatchesDesyncedLineFeatures(t *testing.T) {
	checkFixture(t, "fixture/paritybad", []*Analyzer{FeatureParity})
}

func TestFeatureParityCatchesDesyncedCellFeatures(t *testing.T) {
	checkFixture(t, "fixture/paritybadcell", []*Analyzer{FeatureParity})
}

// TestIgnoreMechanics exercises the suppression layer itself: a valid
// directive silences its finding, while missing reasons, stale directives,
// and unknown check names are reported.
func TestIgnoreMechanics(t *testing.T) {
	l := fixtureLoader(t)
	diags, err := Run(l, []string{"fixture/ignores"}, All)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		if d.Check != "ignore" {
			t.Errorf("finding escaped suppression handling: %s", d)
			continue
		}
		msgs = append(msgs, d.Message)
	}
	if len(msgs) != 3 {
		t.Fatalf("got %d ignore findings (%v), want 3", len(msgs), msgs)
	}
	sort.Strings(msgs)
	for i, substr := range []string{"suppresses nothing", "unknown check", "needs a reason"} {
		if !strings.Contains(msgs[i], substr) {
			t.Errorf("ignore finding %d = %q, want substring %q", i, msgs[i], substr)
		}
	}
}

// TestNamesCoverNewChecks pins the registry: the stale-ignore detector and
// the -checks flag both resolve names through Lookup, so a check missing
// from the registry would silently break both.
func TestNamesCoverNewChecks(t *testing.T) {
	for _, name := range []string{"ctxflow", "errflow", "hotalloc", "lockcheck", "sharedwrite", "rescleak", "lostcancel", "goroleak"} {
		if Lookup(name) == nil {
			t.Errorf("Lookup(%q) = nil; stale-ignore detection and -checks cannot see it", name)
		}
	}
	if len(Names()) != len(All) {
		t.Errorf("Names() returned %d names for %d analyzers", len(Names()), len(All))
	}
}

// TestRealFeaturesPackageIsClean pins the repo's own invariant: the
// analyzers accept internal/features as-is. If this fails, either the
// features code or an analyzer regressed.
func TestRealFeaturesPackageIsClean(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	diags, err := Run(l, []string{modPath + "/internal/features"}, All)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

func TestFindModule(t *testing.T) {
	root, path, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if path != "strudel" {
		t.Errorf("module path = %q, want strudel", path)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("module root %s has no go.mod: %v", root, err)
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand included testdata package %s", p)
		}
	}
	found := false
	for _, p := range paths {
		if p == "strudel/internal/analysis" {
			found = true
		}
	}
	if !found {
		t.Errorf("Expand(./...) from internal/analysis missed the package itself: %v", paths)
	}
}

func TestExpandSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, body := range map[string]string{
		"go.mod":           "module m\n",
		"a/a.go":           "package a\n",
		"nested/go.mod":    "module n\n",
		"nested/n.go":      "package n\n",
		"nested/deep/d.go": "package deep\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := NewLoader(root, "m").Expand([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "m/a" {
		t.Errorf("Expand(./...) = %v, want only m/a (the nested module is not part of m)", paths)
	}
}
