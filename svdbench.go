// Package svdbench is the public API of the storage-based ANN benchmark, a
// reproduction of "Storage-Based Approximate Nearest Neighbor Search: What
// are the Performance, Cost, and I/O Characteristics?" (IISWC 2025).
//
// The package re-exports the library's building blocks:
//
//   - synthetic embedding datasets with exact ground truth (GenerateDataset,
//     CatalogSpec),
//   - a full vector-database core with four engine trait profiles —
//     Milvus, Qdrant, Weaviate, LanceDB — over five index families —
//     IVF_FLAT, IVF_PQ, HNSW, HNSW_SQ, DiskANN (NewCollection),
//   - a calibrated discrete-event testbed simulation (RunWorkload), and
//   - the experiment registry that regenerates every table and figure of
//     the paper (Experiments, NewBench).
//
// See examples/quickstart for a five-minute tour.
package svdbench

import (
	"context"

	"svdbench/internal/core"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/index/diskann"
	"svdbench/internal/index/flat"
	"svdbench/internal/index/hnsw"
	"svdbench/internal/index/ivf"
	"svdbench/internal/index/spann"
	"svdbench/internal/vdb"
	"svdbench/internal/vec"
)

// Core data types.
type (
	// Dataset is a generated workload: base vectors, queries, ground truth.
	Dataset = dataset.Dataset
	// DatasetSpec describes a synthetic dataset deterministically.
	DatasetSpec = dataset.Spec
	// Scale selects catalog dataset sizes (ScaleTiny/ScaleSmall/ScaleRepro).
	Scale = dataset.Scale
	// Matrix is a dense row-major float32 vector collection.
	Matrix = vec.Matrix
	// Metric is a vector distance metric.
	Metric = vec.Metric

	// Collection is a vector collection under one engine's traits.
	Collection = vdb.Collection
	// Payload is auxiliary data attached to a vector.
	Payload = vdb.Payload
	// EngineTraits is the behavioural envelope of a database engine.
	EngineTraits = vdb.Traits
	// IndexKind selects an index family.
	IndexKind = vdb.IndexKind
	// BuildParams carries build-time index parameters (Table II).
	BuildParams = vdb.BuildParams
	// Setup pairs an engine with an index kind.
	Setup = vdb.Setup
	// QueryExec is a recorded query execution for simulation replay.
	QueryExec = vdb.QueryExec

	// SearchOptions carries search-time parameters (nprobe, efSearch,
	// search_list, beam_width, look-ahead, filters).
	SearchOptions = index.SearchOptions
	// SearchResult is a completed search with work statistics.
	SearchResult = index.Result
	// SearchStats counts the work one search performed, including the
	// speculative-read accounting of look-ahead pipelining.
	SearchStats = index.Stats

	// Bench orchestrates datasets, stacks and experiment cells.
	Bench = core.Bench
	// Stack is a prepared (dataset, engine, index) configuration.
	Stack = core.Stack
	// RunConfig controls one closed-loop measurement.
	RunConfig = core.RunConfig
	// RunOutput is the measurement result with optional I/O timeline.
	RunOutput = core.RunOutput
	// Metrics is the aggregate of one measurement.
	Metrics = core.Metrics
	// Experiment regenerates one table or figure of the paper.
	Experiment = core.Experiment
	// Progress is one per-cell completion report (Bench.OnProgress).
	Progress = core.Progress
)

// Typed sentinel errors, matchable with errors.Is through any wrapping.
var (
	// ErrUnknownEngine reports an engine name outside the paper's four.
	ErrUnknownEngine = vdb.ErrUnknownEngine
	// ErrUnknownExperiment reports an experiment id outside the registry.
	ErrUnknownExperiment = core.ErrUnknownExperiment
	// ErrBadParams reports structurally invalid caller input (bad dimension,
	// empty bulk load, mismatched vector).
	ErrBadParams = vdb.ErrBadParams
)

// Distance metrics.
const (
	L2     = vec.L2
	IP     = vec.IP
	Cosine = vec.Cosine
)

// Index kinds (Sec. III-C).
const (
	IndexIVFFlat = vdb.IndexIVFFlat
	IndexIVFPQ   = vdb.IndexIVFPQ
	IndexHNSW    = vdb.IndexHNSW
	IndexHNSWSQ  = vdb.IndexHNSWSQ
	IndexDiskANN = vdb.IndexDiskANN
)

// Catalog scales.
const (
	ScaleTiny  = dataset.ScaleTiny
	ScaleSmall = dataset.ScaleSmall
	ScaleRepro = dataset.ScaleRepro
)

// Engine trait profiles of the four benchmarked systems.
func Milvus() EngineTraits   { return vdb.Milvus() }
func Qdrant() EngineTraits   { return vdb.Qdrant() }
func Weaviate() EngineTraits { return vdb.Weaviate() }
func LanceDB() EngineTraits  { return vdb.LanceDB() }

// EngineByName resolves an engine trait profile by paper name.
func EngineByName(name string) (EngineTraits, error) { return vdb.EngineByName(name) }

// PaperSetups returns the seven (engine, index) configurations of the
// paper's Figures 2–4.
func PaperSetups() []Setup { return vdb.PaperSetups() }

// DefaultBuildParams returns the paper's Table II build-time settings
// (HNSW M=16/efC=200, DiskANN R=48/L=100/α=1.2, IVF nlist=4·√n).
func DefaultBuildParams() BuildParams { return vdb.DefaultBuildParams() }

// NewCollection creates an empty collection for an engine and index kind.
func NewCollection(name string, dim int, metric Metric, traits EngineTraits, kind IndexKind, params BuildParams) (*Collection, error) {
	return vdb.NewCollection(name, dim, metric, traits, kind, params)
}

// GenerateDataset builds the synthetic dataset described by spec, including
// exact ground truth.
func GenerateDataset(spec DatasetSpec) *Dataset { return dataset.Generate(spec) }

// LoadOrGenerateDataset returns the dataset for spec, using dir as an
// on-disk cache ("" disables caching).
func LoadOrGenerateDataset(dir string, spec DatasetSpec) (*Dataset, error) {
	return dataset.LoadOrGenerate(dir, spec)
}

// CatalogSpec returns the spec of one of the paper's four datasets
// ("cohere-small", "cohere-large", "openai-small", "openai-large") at a
// scale.
func CatalogSpec(name string, s Scale) (DatasetSpec, error) { return dataset.CatalogSpec(name, s) }

// CatalogNames lists the paper's datasets in presentation order.
func CatalogNames() []string { return dataset.CatalogNames() }

// MeanRecallAtK averages recall@k of search results against ground truth.
func MeanRecallAtK(results [][]int32, truth [][]int32, k int) float64 {
	return dataset.MeanRecallAtK(results, truth, k)
}

// NewMatrix allocates an n×dim vector matrix.
func NewMatrix(n, dim int) *Matrix { return vec.NewMatrix(n, dim) }

// RunWorkload replays recorded executions through the simulated testbed
// under a trait profile: the measurement primitive behind every figure. It
// is the context-free wrapper over RunWorkloadContext.
func RunWorkload(execs []QueryExec, traits EngineTraits, cfg RunConfig) RunOutput {
	return core.Run(execs, traits, cfg)
}

// RunWorkloadContext is RunWorkload with cancellation: a cancelled ctx stops
// the measurement between repetitions and returns ctx's error.
func RunWorkloadContext(ctx context.Context, execs []QueryExec, traits EngineTraits, cfg RunConfig) (RunOutput, error) {
	return core.RunContext(ctx, execs, traits, cfg)
}

// On-disk layout names for SearchOptions.Layout: LayoutID (one node per
// 4 KiB page slot, the paper's layout and the default) or LayoutPage
// (page-node co-design: beam search over page groups packing each node with
// its nearest graph neighbours, scoring every resident a fetched page
// returns). The `layout` experiment (Extension G) measures the device-read
// difference at equal recall.
const (
	LayoutID   = index.LayoutID
	LayoutPage = index.LayoutPage
)

// Node-cache policy names for SearchOptions.NodeCachePolicy: the
// storage-based indexes (DiskANN, SPANN) cache the NodeCacheNodes hottest
// nodes between beam search and the device, either NodeCacheStatic
// (BFS-warmed from the entry point) or NodeCacheLRU.
const (
	NodeCacheStatic = index.NodeCacheStatic
	NodeCacheLRU    = index.NodeCacheLRU
)

// NewBench creates an experiment orchestrator at a dataset scale, caching
// generated datasets in cacheDir ("" disables).
func NewBench(scale Scale, cacheDir string) *Bench { return core.NewBench(scale, cacheDir) }

// Experiments returns the registry regenerating every table and figure.
func Experiments() []Experiment { return core.Experiments() }

// ExperimentByID finds one experiment ("table1", "fig2", ..., "extC").
func ExperimentByID(id string) (Experiment, error) { return core.ExperimentByID(id) }

// PaperK is the result depth (k=10) every experiment uses.
const PaperK = core.PaperK

// Bare index constructors, for algorithm-level work outside the database
// layer (the extD experiment compares DiskANN and SPANN this way).
type (
	// VectorIndex is the interface all index families implement.
	VectorIndex = index.Index
	// HNSWConfig configures an HNSW build (M, efConstruction, SQ).
	HNSWConfig = hnsw.Config
	// DiskANNConfig configures a Vamana/DiskANN build (R, LBuild, alpha, PQM).
	DiskANNConfig = diskann.Config
	// IVFConfig configures an IVF build (nlist, PQ).
	IVFConfig = ivf.Config
	// SPANNConfig configures a SPANN-style build (posting size, replication).
	SPANNConfig = spann.Config
)

// BuildHNSW constructs a hierarchical navigable small-world graph index.
func BuildHNSW(data *Matrix, ids []int32, cfg HNSWConfig) (*hnsw.Index, error) {
	return hnsw.Build(data, ids, cfg)
}

// BuildDiskANN constructs a storage-based Vamana graph index.
func BuildDiskANN(data *Matrix, ids []int32, cfg DiskANNConfig) (*diskann.Index, error) {
	return diskann.Build(data, ids, cfg)
}

// BuildIVF constructs an inverted-file index (flat or PQ).
func BuildIVF(data *Matrix, ids []int32, cfg IVFConfig) (*ivf.Index, error) {
	return ivf.Build(data, ids, cfg)
}

// BuildSPANN constructs a SPANN-style storage-based cluster index.
func BuildSPANN(data *Matrix, ids []int32, cfg SPANNConfig) (*spann.Index, error) {
	return spann.Build(data, ids, cfg)
}

// NewFlat constructs the exact brute-force baseline index.
func NewFlat(data *Matrix, metric Metric, ids []int32) *flat.Index {
	return flat.New(data, metric, ids)
}
