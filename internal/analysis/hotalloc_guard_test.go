package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyPackage copies the non-test Go files of the package under
// internal/<rel> into a temporary directory and returns it. Files for which
// strip reports true lose their //annlint:allow hotalloc annotations.
func copyPackage(t *testing.T, rel string, strip func(name string) bool) string {
	t.Helper()
	src := filepath.Join("..", rel)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if strip(name) {
			lines := strings.Split(string(data), "\n")
			for i, line := range lines {
				if idx := strings.Index(line, "//annlint:allow hotalloc"); idx >= 0 {
					lines[i] = strings.TrimRight(line[:idx], " \t")
				}
			}
			data = []byte(strings.Join(lines, "\n"))
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// hotPathOnly fails the test on any diagnostic that is not a hot-path one.
func hotPathOnly(t *testing.T, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		if !strings.Contains(d.Message, "on the hot path") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestHotallocGuardsScratchContract proves the analyzer guards the
// zero-alloc search contract on the real tree, not just on fixtures, across
// a package boundary: verbatim copies of internal/index and
// internal/index/flat lint clean together, and stripping the index copy's
// hotalloc allow annotations — among them the one on index.Grow, the
// amortised growth every scratch buffer goes through — makes flat's
// SearchInto report its Grow call as a hot-path allocation.
func TestHotallocGuardsScratchContract(t *testing.T) {
	paths := []string{modulePath + "/internal/index", modulePath + "/internal/index/flat"}
	lint := func(t *testing.T, strip bool) []Diagnostic {
		t.Helper()
		// One loader, so the flat copy imports the index copy from source.
		l := NewLoader("")
		idx, err := l.LoadDir(copyPackage(t, "index", func(string) bool { return strip }), paths[0])
		if err != nil {
			t.Fatalf("load copied index: %v", err)
		}
		flat, err := l.LoadDir(copyPackage(t, filepath.Join("index", "flat"), func(string) bool { return false }), paths[1])
		if err != nil {
			t.Fatalf("load copied flat: %v", err)
		}
		return RunForTestPackages([]*Package{idx, flat}, Hotalloc, paths)
	}

	if diags := lint(t, false); len(diags) != 0 {
		t.Fatalf("verbatim copies of internal/index and internal/index/flat are not clean:\n%v", diags)
	}

	diags := lint(t, true)
	hotPathOnly(t, diags)
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "flat.go" && strings.Contains(d.Message, "index.Grow allocates") {
			return
		}
	}
	t.Fatalf("stripping index's hotalloc annotations did not flag flat's index.Grow call; the analyzer does not guard the scratch contract:\n%v", diags)
}

// TestHotallocGuardsPageSearchContract extends the real-tree guard to the
// DiskANN beam kernel: a verbatim copy of internal/index/diskann lints
// clean, and stripping only page.go's allow annotations (the lazy layout
// materialisation) fires hot-path diagnostics — so the search's zero-alloc
// contract cannot be silently weakened. page.go holds the package's one beam
// search, reached from SearchInto, now the package's only //annlint:hotpath
// root, so the same guard covers the id layout and the page layout.
func TestHotallocGuardsPageSearchContract(t *testing.T) {
	asPath := modulePath + "/internal/index/diskann"
	lint := func(t *testing.T, strip bool) []Diagnostic {
		t.Helper()
		dir := copyPackage(t, filepath.Join("index", "diskann"), func(name string) bool { return strip && name == "page.go" })
		// A fresh loader so the copy does not shadow the real package in the
		// shared loader's source registry.
		pkg, err := NewLoader("").LoadDir(dir, asPath)
		if err != nil {
			t.Fatalf("load copied diskann: %v", err)
		}
		return RunForTest(pkg, Hotalloc, asPath)
	}

	if diags := lint(t, false); len(diags) != 0 {
		t.Fatalf("verbatim copy of internal/index/diskann is not clean:\n%v", diags)
	}

	diags := lint(t, true)
	if len(diags) == 0 {
		t.Fatal("stripping page.go's hotalloc annotations produced no diagnostics; the analyzer does not guard the beam kernel's contract")
	}
	hotPathOnly(t, diags)
}
