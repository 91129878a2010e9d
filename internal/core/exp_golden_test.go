package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"svdbench/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// renderExperiment runs one experiment on a fresh bench at the given worker
// count with fixed tiny-scale settings (the golden files' contract).
func renderExperiment(t *testing.T, id string, workers int) string {
	t.Helper()
	b := NewBench(dataset.ScaleTiny, "")
	b.RunDefaults = RunConfig{Duration: 100 * time.Millisecond, Repetitions: 2, Cores: 8}
	b.Workers = workers
	exp, err := ExperimentByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exp.RunContext(context.Background(), b, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExperimentGoldens pins experiment tables byte-for-byte: the cell order
// and every formatted figure must be identical at any -parallel worker count
// and across runs (run with -update to regenerate testdata). Between them the
// four cover both submission policies, look-ahead, the node cache, the page
// layout and search under writes — every path a replayed read can take.
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds index stacks")
	}
	for _, tc := range []struct {
		id, golden string
		want       []string
	}{
		{"cache", "cache_tiny.golden", []string{"hit rate", "reads/query", "static", "lru", "off"}},
		{"layout", "layout_tiny.golden", []string{"dev reads/query", "page (equal L)", "page (tuned L)", "recall@10"}},
		{"pipeline", "pipeline_tiny.golden", []string{"look-ahead", "wasted pf", "overlap", "SPANN", "DiskANN"}},
		{"extA", "exta_tiny.golden", []string{"writer threads", "write MiB/s", "128"}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			seq := renderExperiment(t, tc.id, 1)
			if par := renderExperiment(t, tc.id, 8); seq != par {
				t.Fatalf("8-worker output differs from sequential:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
			}
			for _, want := range tc.want {
				if !strings.Contains(seq, want) {
					t.Errorf("%s output missing %q:\n%s", tc.id, want, seq)
				}
			}
			golden := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(seq), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden file missing (regenerate with go test -run TestExperimentGoldens -update): %v", err)
			}
			if seq != string(want) {
				t.Errorf("%s experiment output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", tc.id, seq, want)
			}
		})
	}
}
