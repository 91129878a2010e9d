package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vdb"
)

// Bench owns the shared state of a harness invocation: loaded datasets,
// built (engine, index) stacks, tuned parameters, recorded executions, and
// memoised run cells, so that every figure reuses the same artefacts exactly
// like the paper's scripts reuse the same built indexes.
//
// All Bench state is safe for concurrent use: experiment cells fan out
// across host workers (see measure), and every cache is a memo — the first goroutine
// asking for a dataset, stack or run cell computes it while later askers
// block on that one computation instead of duplicating it.
type Bench struct {
	// Scale selects dataset sizes (see dataset.Scale).
	Scale dataset.Scale
	// CacheDir caches generated datasets on disk ("" disables).
	CacheDir string
	// Logf logs progress (nil silences).
	Logf func(format string, args ...interface{})
	// RunDefaults is applied to every cell (threads and sweep-specific
	// fields are overridden per cell).
	RunDefaults RunConfig
	// Workers bounds how many experiment cells execute concurrently on
	// host goroutines (0 = runtime.GOMAXPROCS). Results are byte-identical
	// at any worker count; see measure.
	Workers int
	// OnProgress, when non-nil, receives one report per completed cell.
	OnProgress func(Progress)

	datasets memo[string, *dataset.Dataset]
	stacks   memo[string, *Stack]
	spanns   memo[string, *spannStack]
	prepared memo[string, *prepared]
	runs     memo[runKey, RunOutput]
}

// runKey memoises a simulation on everything that determines it: the stack,
// the recording (inside core the variantKey of its search options, see
// Bench.run; outside it RunCell's caller-chosen ID) and the whole defaulted
// RunConfig, so no field can silently share a result.
type runKey struct {
	dataset, setup string
	cfg            RunConfig
	cellID         string
}

// memo is a per-key singleflight cache, ready to use at its zero value: the
// slot for a key is created under mu, its value is computed exactly once
// under the slot's own sync.Once, and a failed computation evicts its slot so
// a cancelled run never poisons a later one.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	slots map[K]*memoSlot[V]
}

type memoSlot[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns the value for key, computing it with f on first use.
// Concurrent calls for one key share one computation.
func (m *memo[K, V]) get(key K, f func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.slots == nil {
		m.slots = map[K]*memoSlot[V]{}
	}
	e, ok := m.slots[key]
	if !ok {
		e = &memoSlot[V]{}
		m.slots[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = f() })
	if e.err != nil {
		m.mu.Lock()
		if m.slots[key] == e {
			delete(m.slots, key)
		}
		m.mu.Unlock()
	}
	return e.v, e.err
}

// NewBench creates a bench at the given scale.
func NewBench(scale dataset.Scale, cacheDir string) *Bench {
	return &Bench{Scale: scale, CacheDir: cacheDir}
}

// sched returns the scheduler of the bench's Workers (GOMAXPROCS when not
// positive) and OnProgress fields: the one every experiment grid is
// measured on.
func (b *Bench) sched() scheduler {
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return scheduler{workers: workers, progress: b.OnProgress}
}

func (b *Bench) logf(format string, args ...interface{}) {
	if b.Logf != nil {
		b.Logf(format, args...)
	}
}

// Dataset loads (or generates and caches) a catalog dataset by paper name.
// It is the context-free wrapper over DatasetContext.
func (b *Bench) Dataset(name string) (*dataset.Dataset, error) {
	return b.DatasetContext(context.Background(), name)
}

// DatasetContext is Dataset with cancellation. Concurrent calls for the same
// name share one generation.
func (b *Bench) DatasetContext(ctx context.Context, name string) (*dataset.Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.datasets.get(name, func() (*dataset.Dataset, error) { return b.loadDataset(ctx, name) })
}

func (b *Bench) loadDataset(ctx context.Context, name string) (*dataset.Dataset, error) {
	spec, err := dataset.CatalogSpec(name, b.Scale)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.logf("dataset %s: loading (n=%d dim=%d)", name, spec.N, spec.Dim)
	start := time.Now() //annlint:allow wallclock -- host-side progress timing, never enters the simulation
	ds, err := dataset.LoadOrGenerate(b.CacheDir, spec)
	if err != nil {
		return nil, err
	}
	b.logf("dataset %s: ready in %v", name, time.Since(start).Round(time.Millisecond)) //annlint:allow wallclock -- host-side progress timing, never enters the simulation
	return ds, nil
}

// Stack is one fully prepared (dataset, engine, index) configuration:
// built collection, tuned search parameters, achieved recall, and recorded
// executions at the tuned parameters.
type Stack struct {
	DatasetName string
	Dataset     *dataset.Dataset
	Setup       vdb.Setup
	Col         *vdb.Collection
	// Opts are the tuned search-time parameters (Table II).
	Opts index.SearchOptions
	// Recall is the achieved recall@10 at Opts over all queries.
	Recall float64
	// Execs are the recorded executions at Opts.
	Execs []vdb.QueryExec
	// BuildTime is the real (host) time index construction took.
	BuildTime time.Duration

	prep *prepared
}

// prepared is the engine-independent part of a stack — the built collection
// and its recorded executions. Engines whose traits produce an identical
// index structure (same kind, same segmentation) share one prepared entry:
// Qdrant and Weaviate both run one monolithic HNSW graph, so the expensive
// build and recording happen once, exactly as the paper shares index
// parameters across databases.
//
// The recording of each search-option variant, and its recall, are memoised
// by variantKey, so concurrent cells asking for the same options share one
// RecordQueries pass.
type prepared struct {
	col     *vdb.Collection
	dataset *dataset.Dataset
	execs   memo[string, []vdb.QueryExec]
	recall  memo[string, float64]
}

// stackKey identifies a stack in the bench cache.
func stackKey(dsName string, setup vdb.Setup) string { return dsName + "/" + setup.Label() }

// colKey identifies the engine-independent collection structure.
func colKey(dsName string, setup vdb.Setup) string {
	return fmt.Sprintf("%s/%s/seg%d", dsName, setup.Index, setup.Engine.SegmentCapacity)
}

// Stack returns (building and tuning on first use) the prepared stack for a
// dataset name and setup. It is the context-free wrapper over StackContext.
func (b *Bench) Stack(dsName string, setup vdb.Setup) (*Stack, error) {
	return b.StackContext(context.Background(), dsName, setup)
}

// StackContext is Stack with cancellation. Segmented engines get their
// segment capacity rescaled to the bench's dataset scale so segment counts
// (and the O-14 fan-out behaviour they cause) match the paper's
// proportions. Concurrent calls for the same (dataset, setup) share one
// build; calls for different setups build their stacks in parallel.
func (b *Bench) StackContext(ctx context.Context, dsName string, setup vdb.Setup) (*Stack, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if setup.Engine.SegmentCapacity > 0 {
		setup.Engine.SegmentCapacity = dataset.SegmentCapacityFor(b.Scale)
	}
	// Per-query memory pressure models an in-memory index working set;
	// streaming posting-list scans (IVF_PQ) are exempt — the paper's
	// LanceDB OOM happened with HNSW only (Sec. IV-A).
	if setup.Index == vdb.IndexIVFPQ {
		setup.Engine.MemPerQuery, setup.Engine.MemBudget = 0, 0
	}
	key := stackKey(dsName, setup)
	return b.stacks.get(key, func() (*Stack, error) { return b.buildStack(ctx, key, dsName, setup) })
}

// buildStack is the memoised body of StackContext.
func (b *Bench) buildStack(ctx context.Context, key, dsName string, setup vdb.Setup) (*Stack, error) {
	ds, err := b.DatasetContext(ctx, dsName)
	if err != nil {
		return nil, err
	}
	start := time.Now() //annlint:allow wallclock -- host-side progress timing, never enters the simulation
	prep, err := b.prepare(ctx, dsName, ds, setup)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(start) //annlint:allow wallclock -- host-side progress timing, never enters the simulation

	st := &Stack{
		DatasetName: dsName,
		Dataset:     ds,
		Setup:       setup,
		Col:         prep.col,
		BuildTime:   buildTime,
		prep:        prep,
	}
	if err := b.tune(ctx, st); err != nil {
		return nil, err
	}
	b.logf("stack %s: tuned %s, recording executions", key, describeOpts(setup.Index, st.Opts))
	st.Execs = st.ExecsFor(st.Opts)
	st.Recall = recallOfExecs(st.Execs, ds.GroundTruth)
	b.logf("stack %s: recall@10 = %.3f", key, st.Recall)
	return st, nil
}

// prepare builds (or restores) the shared collection for a dataset and
// setup, memoised by structural key.
func (b *Bench) prepare(ctx context.Context, dsName string, ds *dataset.Dataset, setup vdb.Setup) (*prepared, error) {
	ck := colKey(dsName, setup)
	return b.prepared.get(ck, func() (*prepared, error) { return b.buildPrepared(ctx, ck, ds, setup) })
}

// buildPrepared is the memoised body of prepare.
func (b *Bench) buildPrepared(ctx context.Context, ck string, ds *dataset.Dataset, setup vdb.Setup) (*prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params := vdb.DefaultBuildParams()
	col := b.loadCachedCollection(ck, ds, setup, params)
	if col == nil {
		b.logf("collection %s: building", ck)
		var err error
		col, err = vdb.NewCollection(ck, ds.Spec.Dim, ds.Spec.Metric, setup.Engine, setup.Index, params)
		if err != nil {
			return nil, err
		}
		start := time.Now() //annlint:allow wallclock -- host-side progress timing, never enters the simulation
		if err := col.BulkLoad(ds.Vectors, nil); err != nil {
			return nil, fmt.Errorf("collection %s: %w", ck, err)
		}
		b.logf("collection %s: built in %v", ck, time.Since(start).Round(time.Millisecond)) //annlint:allow wallclock -- host-side progress timing, never enters the simulation
		b.saveCachedCollection(ck, ds, col, params)
	} else {
		b.logf("collection %s: loaded from cache", ck)
	}
	var nextPage int64
	col.AssignStorage(func(n int64) int64 { p := nextPage; nextPage += n; return p })
	return &prepared{col: col, dataset: ds}, nil
}

// PaperK is the result depth of every experiment (the paper evaluates
// recall@10 and k=10 searches).
const PaperK = 10

// stackCachePath returns the on-disk location of a persisted stack
// collection ("" when caching is disabled). The dataset's generation
// parameters participate so a generator change can never resurrect an index
// built over different data, and the build fingerprint so a change of build
// parameters or snapshot format never serves a stale one.
func (b *Bench) stackCachePath(key string, ds *dataset.Dataset, params vdb.BuildParams) string {
	if b.CacheDir == "" {
		return ""
	}
	key = fmt.Sprintf("%s-n%d-s%d-c%d-sp%03d-%s", key,
		ds.Spec.N, ds.Spec.Seed, ds.Spec.Clusters, int(ds.Spec.Spread*100), params.Fingerprint())
	safe := make([]rune, 0, len(key))
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	return filepath.Join(b.CacheDir, "stacks", string(safe)+".col")
}

// loadCachedCollection restores a persisted stack collection, returning nil
// on any miss or mismatch (the stack is then rebuilt).
func (b *Bench) loadCachedCollection(key string, ds *dataset.Dataset, setup vdb.Setup, params vdb.BuildParams) *vdb.Collection {
	path := b.stackCachePath(key, ds, params)
	if path == "" {
		return nil
	}
	col, err := vdb.LoadCollection(path, ds.Vectors, setup.Engine, params)
	if err != nil {
		return nil
	}
	return col
}

// saveCachedCollection persists a freshly built collection, best-effort.
func (b *Bench) saveCachedCollection(key string, ds *dataset.Dataset, col *vdb.Collection, params vdb.BuildParams) {
	path := b.stackCachePath(key, ds, params)
	if path == "" {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		b.logf("stack %s: cache dir: %v", key, err)
		return
	}
	if err := col.Save(path); err != nil {
		b.logf("stack %s: cache save: %v", key, err)
	}
}

// recallOfExecs computes mean recall@10 of recorded executions.
func recallOfExecs(execs []vdb.QueryExec, gt [][]int32) float64 {
	ids := make([][]int32, len(execs))
	for i := range execs {
		ids[i] = execs[i].IDs
	}
	return dataset.MeanRecallAtK(ids, gt, PaperK)
}

// variantKey identifies one search-option variant in a prepared's memos and
// in the run memo: it must name every field that can change a recording.
func variantKey(opts index.SearchOptions) string {
	return fmt.Sprintf("np%d-ef%d-sl%d-bw%d-nc%d-ncp%s-la%d-ly%s",
		opts.NProbe, opts.EfSearch, opts.SearchList, opts.BeamWidth,
		opts.NodeCacheNodes, opts.NodeCachePolicy, opts.LookAhead, opts.Layout)
}

// ExecsFor returns recorded executions at the given search options,
// memoised per option set (shared across engines with the same collection
// structure). Concurrent calls for the same options share one recording.
func (s *Stack) ExecsFor(opts index.SearchOptions) []vdb.QueryExec {
	p := s.prep
	execs, _ := p.execs.get(variantKey(opts), func() ([]vdb.QueryExec, error) {
		return p.col.RecordQueries(p.dataset.Queries, PaperK, opts), nil
	})
	return execs
}

// RecallFor computes achieved recall at non-default options, memoised.
func (s *Stack) RecallFor(opts index.SearchOptions) float64 {
	p := s.prep
	recall, _ := p.recall.get(variantKey(opts), func() (float64, error) {
		return recallOfExecs(s.ExecsFor(opts), p.dataset.GroundTruth), nil
	})
	return recall
}

// RunCell executes (memoised) one measurement cell for a stack. It is the
// context-free wrapper over RunCellContext.
func (b *Bench) RunCell(st *Stack, execs []vdb.QueryExec, cfg RunConfig, cellID string) RunOutput {
	out, _ := b.RunCellContext(context.Background(), st, execs, cfg, cellID)
	return out
}

// RunCellContext is RunCell with cancellation. Concurrent calls for the same
// cell key share one simulation.
func (b *Bench) RunCellContext(ctx context.Context, st *Stack, execs []vdb.QueryExec, cfg RunConfig, cellID string) (RunOutput, error) {
	if err := ctx.Err(); err != nil {
		return RunOutput{}, err
	}
	cfg = b.mergeDefaults(cfg)
	key := runKey{st.DatasetName, st.Setup.Label(), cfg, cellID}
	return b.runs.get(key, func() (RunOutput, error) { return RunContext(ctx, execs, st.Setup.Engine, cfg) })
}

// run measures the stack's recording at opts under cfg as one memoised run
// cell named by its inputs, so experiments that measure the same (stack,
// options, config) share one simulation.
func (b *Bench) run(ctx context.Context, st *Stack, opts index.SearchOptions, cfg RunConfig) (RunOutput, error) {
	return b.RunCellContext(ctx, st, st.ExecsFor(opts), cfg, variantKey(opts))
}

func (b *Bench) mergeDefaults(cfg RunConfig) RunConfig {
	if cfg.Duration <= 0 {
		cfg.Duration = b.RunDefaults.Duration
	}
	if cfg.Repetitions <= 0 {
		cfg.Repetitions = b.RunDefaults.Repetitions
	}
	if cfg.Cores <= 0 {
		cfg.Cores = b.RunDefaults.Cores
	}
	return cfg.Defaults()
}

// describeOpts renders the tuned parameter for logs and Table II.
func describeOpts(kind vdb.IndexKind, opts index.SearchOptions) string {
	switch kind {
	case vdb.IndexIVFFlat, vdb.IndexIVFPQ:
		return fmt.Sprintf("nprobe=%d", opts.NProbe)
	case vdb.IndexHNSW, vdb.IndexHNSWSQ:
		return fmt.Sprintf("efSearch=%d", opts.EfSearch)
	case vdb.IndexDiskANN:
		return fmt.Sprintf("search_list=%d beam_width=%d", opts.SearchList, opts.BeamWidth)
	default:
		return "?"
	}
}

// ThreadSweep is the paper's concurrency ladder for Figures 2–4.
var ThreadSweep = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// SearchListSweep is the paper's Fig. 7–11 ladder.
var SearchListSweep = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// BeamWidthSweep is the paper's Fig. 12–15 ladder.
var BeamWidthSweep = []int{1, 2, 4, 8, 16, 32}
