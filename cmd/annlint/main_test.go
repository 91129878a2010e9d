package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != exitClean {
		t.Fatalf("run(-list) = %d, want %d (stderr: %s)", code, exitClean, errb.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"wallclock", "seededrand", "mapiter", "errwrap", "floatcmp", "hotalloc"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("-list analyzers = %v, want exactly %v", names, want)
	}
}

// The repo itself must lint clean — this is the same invocation as
// `make lint`, addressed by module path so the test is cwd-independent.
func TestRepoIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"svdbench/..."}, &out, &errb); code != exitClean {
		t.Fatalf("repo lint = %d, want %d\n%s%s", code, exitClean, out.String(), errb.String())
	}
}

// -suppressions lists every allow directive with its justification and
// exits clean: the audit mode reports, it does not judge.
func TestSuppressionAudit(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-suppressions", "svdbench/internal/index/..."}, &out, &errb); code != exitClean {
		t.Fatalf("run(-suppressions) = %d, want %d (stderr: %s)", code, exitClean, errb.String())
	}
	if !strings.Contains(out.String(), "allow hotalloc -- ") {
		t.Errorf("-suppressions output missing hotalloc allow entries:\n%s", out.String())
	}
}

func TestBadPatternIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./does-not-exist"}, &out, &errb); code != exitError {
		t.Fatalf("run(./does-not-exist) = %d, want %d", code, exitError)
	}
}
