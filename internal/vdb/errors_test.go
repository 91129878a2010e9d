package vdb

import (
	"errors"
	"testing"

	"svdbench/internal/vec"
)

func TestUnknownEngineSentinel(t *testing.T) {
	_, err := EngineByName("oracle")
	if !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("err = %v, want ErrUnknownEngine", err)
	}
}

func TestBadParamsSentinel(t *testing.T) {
	if _, err := NewCollection("c", 0, vec.Cosine, Qdrant(), IndexHNSW, DefaultBuildParams()); !errors.Is(err, ErrBadParams) {
		t.Errorf("zero dim: err = %v, want ErrBadParams", err)
	}
	if _, err := NewCollection("c", 8, vec.Metric(7), Qdrant(), IndexHNSW, DefaultBuildParams()); !errors.Is(err, ErrBadParams) {
		t.Errorf("unknown metric: err = %v, want ErrBadParams", err)
	}

	col, err := NewCollection("c", 8, vec.Cosine, Qdrant(), IndexHNSW, DefaultBuildParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.BulkLoad(vec.NewMatrix(0, 8), nil); !errors.Is(err, ErrBadParams) {
		t.Errorf("empty bulk load: err = %v, want ErrBadParams", err)
	}
	if err := col.BulkLoad(vec.NewMatrix(4, 16), nil); !errors.Is(err, ErrBadParams) {
		t.Errorf("dim-mismatched bulk load: err = %v, want ErrBadParams", err)
	}
	if _, err := col.Insert(make([]float32, 16), nil); !errors.Is(err, ErrBadParams) {
		t.Errorf("dim-mismatched insert: err = %v, want ErrBadParams", err)
	}
}

// TestUnknownIndexKindWrapsBadParams pins the errwrap fix in
// buildIndex: an unknown index kind is caller input, so the error must
// carry ErrBadParams for annbench's exit-code classification (exit 2, not
// the internal-failure exit 1 a bare fmt.Errorf caused).
func TestUnknownIndexKindWrapsBadParams(t *testing.T) {
	c := &Collection{kind: IndexKind("quantum-skiplist"), metric: vec.Cosine, params: DefaultBuildParams()}
	_, err := c.buildIndex(vec.NewMatrix(1, 4), nil, 0)
	if !errors.Is(err, ErrBadParams) {
		t.Errorf("unknown index kind: err = %v, want ErrBadParams in the chain", err)
	}
}
