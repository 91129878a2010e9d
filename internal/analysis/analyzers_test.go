package analysis

import (
	"strings"
	"testing"
)

// Each analyzer must fire on its failing fixture (every finding pinned by a
// want comment), stay silent on its clean fixture, and honor suppressions —
// the clean fixtures each contain one annotated site.

func TestWallclockSimPure(t *testing.T) {
	runFixture(t, Wallclock, "wallclock_sim", modulePath+"/internal/sim/fixture")
}

func TestWallclockHarness(t *testing.T) {
	runFixture(t, Wallclock, "wallclock_harness", modulePath+"/cmd/fixture")
}

func TestWallclockClean(t *testing.T) {
	runFixture(t, Wallclock, "wallclock_clean", modulePath+"/internal/vec/fixture")
}

func TestSeededRandBad(t *testing.T) {
	runFixture(t, SeededRand, "seededrand_bad", modulePath+"/internal/index/srfix")
}

func TestSeededRandClean(t *testing.T) {
	runFixture(t, SeededRand, "seededrand_clean", modulePath+"/internal/index/srclean")
}

func TestMapIterBad(t *testing.T) {
	runFixture(t, MapIter, "mapiter_bad", modulePath+"/internal/util/mifix")
}

func TestMapIterBinenc(t *testing.T) {
	runFixture(t, MapIter, "mapiter_binenc", modulePath+"/internal/binenc")
}

func TestMapIterClean(t *testing.T) {
	runFixture(t, MapIter, "mapiter_clean", modulePath+"/internal/util/miclean")
}

func TestErrWrapBad(t *testing.T) {
	runFixture(t, ErrWrap, "errwrap_bad", modulePath+"/internal/core/ewfix")
}

func TestErrWrapClean(t *testing.T) {
	runFixture(t, ErrWrap, "errwrap_clean", modulePath+"/internal/core/ewclean")
}

// Outside the exit-code classification packages the bad-parameter rule is
// off, but the %v-wrapping and ==-sentinel rules still apply.
func TestErrWrapRootErrorsOnlyInClassifiedPackages(t *testing.T) {
	pkg, err := sharedLoader.LoadDir("testdata/src/errwrap_bad", modulePath+"/internal/vec/ewfix")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunForTest(pkg, ErrWrap, pkg.Path)
	for _, d := range diags {
		if strings.Contains(d.Message, "bad-parameter message") {
			t.Errorf("bad-parameter rule fired outside classified packages: %s", d)
		}
	}
	if len(diags) != 4 { // Wrapv, Wraps, IsBad, IsNotBad
		t.Errorf("got %d diagnostics, want 4 (the non-classification rules):\n%v", len(diags), diags)
	}
}

func TestFloatCmpBad(t *testing.T) {
	runFixture(t, FloatCmp, "floatcmp_bad", modulePath+"/internal/index/fcfix")
}

func TestFloatCmpClean(t *testing.T) {
	runFixture(t, FloatCmp, "floatcmp_clean", modulePath+"/internal/index/fcclean")
}

func TestHotallocBad(t *testing.T) {
	runFixture(t, Hotalloc, "hotalloc_bad", modulePath+"/internal/index/hafix")
}

func TestHotallocClean(t *testing.T) {
	runFixture(t, Hotalloc, "hotalloc_clean", modulePath+"/internal/index/haclean")
}

// TestHotallocCrossPackage proves fact propagation: the importer package
// contains no allocation of its own; the diagnostic exists only because the
// dependency's exported summary says its function allocates.
func TestHotallocCrossPackage(t *testing.T) {
	runFixtureChain(t, Hotalloc, []fixtureSpec{
		{"hotalloc_dep", modulePath + "/internal/index/hotalloc_dep"},
		{"hotalloc_xpkg", modulePath + "/internal/index/hotalloc_xpkg"},
	})
}

func TestSuiteNamesUniqueAndDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be lower-case with no spaces (directive grammar)", a.Name)
		}
	}
	if len(seen) != 6 {
		t.Errorf("suite has %d analyzers, want 6", len(seen))
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		verbs  string
		ok     bool
	}{
		{"plain", "", true},
		{"%d and %s", "ds", true},
		{"100%% done %v", "v", true},
		{"%w: %q", "wq", true},
		{"%+8.3f", "f", true},
		{"%*d", "*d", true},
		{"%.*f", "*f", true},
		{"%[1]s", "", false},
	}
	for _, c := range cases {
		verbs, ok := formatVerbs(c.format)
		if ok != c.ok || string(verbs) != c.verbs {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", c.format, string(verbs), ok, c.verbs, c.ok)
		}
	}
}

// The scope tables must track the packages they police: a rename or move
// should fail loudly here, not silently stop linting.
func TestAnalyzerScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		match    bool
	}{
		{Wallclock, modulePath + "/internal/sim", true},
		{Wallclock, modulePath + "/internal/storage/ssd", true},
		{Wallclock, modulePath + "/internal/index/hnsw", true},
		{Wallclock, modulePath + "/internal/core", true},
		{Wallclock, modulePath + "/cmd/annbench", true},
		{Wallclock, modulePath + "/examples/rag", false},
		{MapIter, modulePath + "/internal/trace", true},
		{MapIter, modulePath + "/cmd/annbench", false},
		{FloatCmp, modulePath + "/internal/index/kmeans", true},
		{FloatCmp, modulePath + "/internal/vec", true},
		{FloatCmp, modulePath + "/internal/core", false},
		{Hotalloc, modulePath + "/internal/index/diskann", true},
		{Hotalloc, modulePath + "/internal/vec", true},
		{Hotalloc, modulePath + "/internal/storage/nodecache", true},
		{Hotalloc, modulePath + "/internal/core", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Match(c.path); got != c.match {
			t.Errorf("%s.Match(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.match)
		}
	}
	if !Wallclock.NoSuppress(modulePath+"/internal/vdb") || Wallclock.NoSuppress(modulePath+"/internal/core") {
		t.Error("wallclock suppression scope wrong: sim-pure must refuse, harness must accept")
	}
}
