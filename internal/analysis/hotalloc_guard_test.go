package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHotallocGuardsScratchContract proves the analyzer guards the
// zero-alloc search contract on the real tree, not just on fixtures: a
// verbatim copy of internal/index/flat lints clean, and stripping its
// hotalloc allow annotations — the static-analysis equivalent of
// re-introducing a per-query allocation where the scratch is reused today —
// produces hot-path diagnostics.
func TestHotallocGuardsScratchContract(t *testing.T) {
	asPath := modulePath + "/internal/index/flat"

	load := func(t *testing.T, strip bool) *Package {
		t.Helper()
		src := filepath.Join("..", "index", "flat")
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				t.Fatal(err)
			}
			if strip {
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
		// A fresh loader so the copy does not shadow the real package in the
		// shared loader's source registry.
		pkg, err := NewLoader("").LoadDir(dir, asPath)
		if err != nil {
			t.Fatalf("load copied flat: %v", err)
		}
		return pkg
	}

	if diags := RunForTest(load(t, false), Hotalloc, asPath); len(diags) != 0 {
		t.Fatalf("verbatim copy of internal/index/flat is not clean:\n%v", diags)
	}

	diags := RunForTest(load(t, true), Hotalloc, asPath)
	if len(diags) == 0 {
		t.Fatal("stripping the hotalloc annotations produced no diagnostics; the analyzer does not guard the scratch contract")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "on the hot path") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestHotallocGuardsPageSearchContract extends the real-tree guard to the
// DiskANN beam kernel: a verbatim copy of internal/index/diskann lints
// clean, and stripping only page.go's allow annotations (the lazy layout
// materialisation and the cap-guarded scratch growth) fires hot-path
// diagnostics — so the search's zero-alloc contract cannot be silently
// weakened. page.go holds the package's one beam search, reached from
// SearchInto, now the package's only //annlint:hotpath root, so the same
// guard covers the id layout and the page layout.
func TestHotallocGuardsPageSearchContract(t *testing.T) {
	asPath := modulePath + "/internal/index/diskann"

	load := func(t *testing.T, strip bool) *Package {
		t.Helper()
		src := filepath.Join("..", "index", "diskann")
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				t.Fatal(err)
			}
			if strip && name == "page.go" {
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
		pkg, err := NewLoader("").LoadDir(dir, asPath)
		if err != nil {
			t.Fatalf("load copied diskann: %v", err)
		}
		return pkg
	}

	if diags := RunForTest(load(t, false), Hotalloc, asPath); len(diags) != 0 {
		t.Fatalf("verbatim copy of internal/index/diskann is not clean:\n%v", diags)
	}

	diags := RunForTest(load(t, true), Hotalloc, asPath)
	if len(diags) == 0 {
		t.Fatal("stripping page.go's hotalloc annotations produced no diagnostics; the analyzer does not guard the beam kernel's contract")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "on the hot path") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}
