package dataset

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"svdbench/internal/vec"
)

func tinySpec() Spec {
	return Spec{
		Name: "test", N: 500, Dim: 16, NumQueries: 20,
		Clusters: 8, Spread: 0.3, Seed: 42, Metric: vec.Cosine, GroundK: 10,
	}
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	a := Generate(tinySpec())
	b := Generate(tinySpec())
	if a.Vectors.Len() != 500 || a.Vectors.Dim != 16 {
		t.Fatalf("vectors %dx%d", a.Vectors.Len(), a.Vectors.Dim)
	}
	if a.Queries.Len() != 20 {
		t.Fatalf("queries %d", a.Queries.Len())
	}
	if !reflect.DeepEqual(a.Vectors.Raw(), b.Vectors.Raw()) {
		t.Error("same spec produced different vectors")
	}
	if !reflect.DeepEqual(a.GroundTruth, b.GroundTruth) {
		t.Error("same spec produced different ground truth")
	}
}

func TestGeneratedVectorsNormalized(t *testing.T) {
	ds := Generate(tinySpec())
	for i := 0; i < ds.Vectors.Len(); i += 50 {
		n := vec.Norm(ds.Vectors.Row(i))
		if math.Abs(float64(n)-1) > 1e-5 {
			t.Fatalf("vector %d has norm %v", i, n)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	s1 := tinySpec()
	s2 := tinySpec()
	s2.Seed = 43
	a, b := Generate(s1), Generate(s2)
	if reflect.DeepEqual(a.Vectors.Raw(), b.Vectors.Raw()) {
		t.Error("different seeds produced identical vectors")
	}
}

func TestGroundTruthIsExact(t *testing.T) {
	ds := Generate(tinySpec())
	// Re-verify query 0 by exhaustive scan.
	q := ds.Queries.Row(0)
	best := int32(-1)
	bestD := float32(math.Inf(1))
	for i := 0; i < ds.Vectors.Len(); i++ {
		d := vec.Distance(ds.Spec.Metric, q, ds.Vectors.Row(i))
		if d < bestD {
			bestD, best = d, int32(i)
		}
	}
	if ds.GroundTruth[0][0] != best {
		t.Errorf("nearest = %d, ground truth says %d", best, ds.GroundTruth[0][0])
	}
	if len(ds.GroundTruth[0]) != 10 {
		t.Errorf("ground truth depth = %d, want 10", len(ds.GroundTruth[0]))
	}
}

func TestGroundTruthSortedByDistance(t *testing.T) {
	ds := Generate(tinySpec())
	for qi, gt := range ds.GroundTruth {
		q := ds.Queries.Row(qi)
		prev := float32(math.Inf(-1))
		for _, id := range gt {
			d := vec.Distance(ds.Spec.Metric, q, ds.Vectors.Row(int(id)))
			if d < prev-1e-6 {
				t.Fatalf("query %d: ground truth not sorted", qi)
			}
			prev = d
		}
	}
}

func TestBruteForceFewerRowsThanK(t *testing.T) {
	base := vec.MatrixFromRows([][]float32{{1, 0}, {0, 1}})
	got := BruteForce(base, vec.MatrixFromRows([][]float32{{1, 0}}), vec.L2, 10)[0]
	if len(got) != 2 || got[0] != 0 {
		t.Errorf("top-k = %v", got)
	}
}

// scalarTopK is the reference BruteForce is pinned to: every pair scored with
// scalar vec.Distance, ranked by (distance, id).
func scalarTopK(base *vec.Matrix, query []float32, metric vec.Metric, k int) []int32 {
	type cand struct {
		id   int32
		dist float32
	}
	cands := make([]cand, base.Len())
	for i := range cands {
		cands[i] = cand{int32(i), vec.Distance(metric, query, base.Row(i))}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].id < cands[j].id
	})
	ids := make([]int32, min(k, len(cands)))
	for i := range ids {
		ids[i] = cands[i].id
	}
	return ids
}

// TestBruteForceMatchesScalarReference: the cached-norm batch scoring must
// pick exactly the ids the scalar per-pair scan picks, in the same order, for
// every metric — including duplicate rows (distance ties broken by id) and a
// zero row (cosine distance 1 by definition).
func TestBruteForceMatchesScalarReference(t *testing.T) {
	spec := tinySpec()
	spec.N, spec.Dim, spec.NumQueries = 300, 24, 12
	ds := Generate(spec)
	copy(ds.Vectors.Row(7), ds.Vectors.Row(3))
	copy(ds.Vectors.Row(299), ds.Vectors.Row(3))
	clear(ds.Vectors.Row(11))
	for _, metric := range []vec.Metric{vec.Cosine, vec.L2, vec.IP} {
		got := BruteForce(ds.Vectors, ds.Queries, metric, 40)
		for qi := range got {
			if want := scalarTopK(ds.Vectors, ds.Queries.Row(qi), metric, 40); !slices.Equal(got[qi], want) {
				t.Fatalf("%v query %d: ids %v, scalar reference %v", metric, qi, got[qi], want)
			}
		}
	}
}

// Property: brute-force top-k always contains the single nearest neighbour
// found by direct scan, and ids are unique.
func TestPropertyBruteForceContainsNearest(t *testing.T) {
	f := func(seed int64) bool {
		spec := tinySpec()
		spec.N = 120
		spec.NumQueries = 4
		spec.Seed = seed
		ds := Generate(spec)
		for qi := 0; qi < spec.NumQueries; qi++ {
			seen := map[int32]bool{}
			for _, id := range ds.GroundTruth[qi] {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRecallAtK(t *testing.T) {
	truth := []int32{1, 2, 3, 4, 5}
	if r := RecallAtK([]int32{1, 2, 3}, truth, 3); r != 1 {
		t.Errorf("perfect recall = %v", r)
	}
	if r := RecallAtK([]int32{1, 9, 8}, truth, 3); math.Abs(r-1.0/3.0) > 1e-9 {
		t.Errorf("recall = %v, want 1/3", r)
	}
	if r := RecallAtK(nil, truth, 3); r != 0 {
		t.Errorf("empty result recall = %v", r)
	}
	if r := RecallAtK([]int32{1}, truth, 0); r != 0 {
		t.Errorf("k=0 recall = %v", r)
	}
	// k larger than truth depth clamps.
	if r := RecallAtK([]int32{1, 2, 3, 4, 5}, truth, 10); r != 1 {
		t.Errorf("clamped recall = %v", r)
	}
}

func TestMeanRecallAtK(t *testing.T) {
	res := [][]int32{{1, 2}, {9, 9}}
	truth := [][]int32{{1, 2}, {1, 2}}
	if m := MeanRecallAtK(res, truth, 2); m != 0.5 {
		t.Errorf("mean recall = %v, want 0.5", m)
	}
	if m := MeanRecallAtK(nil, nil, 2); m != 0 {
		t.Errorf("empty mean recall = %v", m)
	}
}

func TestCatalogSpecs(t *testing.T) {
	for _, name := range CatalogNames() {
		spec, err := CatalogSpec(name, ScaleTiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Dim != paperDims[name] {
			t.Errorf("%s dim = %d", name, spec.Dim)
		}
	}
	// 10x ratio preserved at every scale.
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScaleRepro} {
		small, _ := CatalogSpec("cohere-small", s)
		large, _ := CatalogSpec("cohere-large", s)
		ratio := float64(large.N) / float64(small.N)
		if ratio < 9.5 || ratio > 10.5 {
			t.Errorf("scale %s: cohere ratio = %v, want 10", s, ratio)
		}
	}
	if _, err := CatalogSpec("nope", ScaleTiny); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := CatalogSpec("cohere-small", Scale("nope")); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	if seedFor("a") != seedFor("a") {
		t.Error("seedFor not stable")
	}
	if seedFor("cohere-small") == seedFor("cohere-large") {
		t.Error("seedFor collision")
	}
}

func TestRoundTripFile(t *testing.T) {
	dir := t.TempDir()
	ds := Generate(tinySpec())
	path := filepath.Join(dir, "x.ds")
	if err := WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spec, ds.Spec) {
		t.Errorf("spec mismatch: %+v vs %+v", got.Spec, ds.Spec)
	}
	if !reflect.DeepEqual(got.Vectors.Raw(), ds.Vectors.Raw()) {
		t.Error("vectors mismatch after round trip")
	}
	if !reflect.DeepEqual(got.GroundTruth, ds.GroundTruth) {
		t.Error("ground truth mismatch after round trip")
	}
}

func TestLoadOrGenerateUsesCache(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	a, err := LoadOrGenerate(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadOrGenerate(dir, spec) // second call must hit the cache
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Vectors.Raw(), b.Vectors.Raw()) {
		t.Error("cache round trip changed data")
	}
	// Empty dir disables caching but still works.
	c, err := LoadOrGenerate("", spec)
	if err != nil || c.Vectors.Len() != spec.N {
		t.Errorf("no-cache path failed: %v", err)
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.ds")
	if err := WriteFile(path+".orig", Generate(tinySpec())); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("NOTMAGIC-and-some-junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("garbage file accepted")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a/b c@d"); got != "a_b_c_d" {
		t.Errorf("sanitize = %q", got)
	}
}
