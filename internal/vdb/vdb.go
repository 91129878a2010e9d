// Package vdb implements the vector-database layer of the reproduction: a
// full database core (collections, segments, payloads, insert/delete with
// tombstones, search scheduling) plus four engine trait profiles that
// reproduce the architectural differences between the systems the paper
// benchmarks — Milvus, Qdrant, Weaviate and LanceDB.
//
// The paper's central methodological point (O-2, O-6, O-8) is that the
// database around an index matters as much as the index itself. The traits
// encode exactly the public architectural facts behind those observations:
//
//   - Milvus shards collections into fixed-capacity segments, builds one
//     index per segment, and fans a single query out across segments in
//     parallel — which is why its throughput plateaus at ~4 concurrent
//     queries on large datasets (O-4) and why DiskANN I/O per query grows
//     with dataset size (O-14).
//   - Qdrant and Weaviate keep one monolithic HNSW graph per collection and
//     execute each query on one core; they scale with the number of query
//     threads until cores saturate (O-5).
//   - Weaviate carries a high fixed per-query overhead (GraphQL/REST
//     processing), making its throughput nearly independent of dataset
//     size (O-6).
//   - LanceDB is an embedded library driven from Python: no server
//     round-trip, but a large per-query interpreter cost, a global lock
//     over parts of execution, and per-query memory that runs the process
//     out of memory at high concurrency (Sec. IV-A).
package vdb

import (
	"errors"
	"fmt"
	"time"
)

// IndexKind selects the index family a collection builds.
type IndexKind string

const (
	IndexIVFFlat IndexKind = "IVF_FLAT"
	IndexIVFPQ   IndexKind = "IVF_PQ"
	IndexHNSW    IndexKind = "HNSW"
	IndexHNSWSQ  IndexKind = "HNSW_SQ"
	IndexDiskANN IndexKind = "DISKANN"
)

// BuildParams carries the build-time parameters of Table II.
type BuildParams struct {
	// NList is IVF's cluster count (0 = the 4·√n rule).
	NList int
	// M and EfConstruction are HNSW's construction parameters (paper:
	// 16 and 200).
	M              int
	EfConstruction int
	// R, LBuild and Alpha are DiskANN's Vamana parameters.
	R      int
	LBuild int
	Alpha  float64
	// Seed makes builds deterministic.
	Seed int64
}

// DefaultBuildParams returns the paper's Table II build-time settings.
func DefaultBuildParams() BuildParams {
	return BuildParams{M: 16, EfConstruction: 200, R: 48, LBuild: 100, Alpha: 1.2, Seed: 1}
}

// Traits is the behavioural envelope of one engine. Durations are virtual
// time; none of them depend on the host machine.
type Traits struct {
	// Name is the engine name as used in the paper's figures.
	Name string
	// RPCOverhead is the client↔server round-trip latency of one query
	// (network + serialisation). It elapses without consuming CPU.
	// Library engines, with no server process, have zero.
	RPCOverhead time.Duration
	// PerQueryCPU is the fixed request-processing cost (parsing,
	// planning, result assembly) burned on one core per query.
	PerQueryCPU time.Duration
	// IdleWake is the thread-pool park/unpark penalty paid by a query
	// that arrives at an idle engine. At high concurrency no query pays
	// it, which produces the superlinear 1→16 thread scaling of O-4.
	IdleWake time.Duration
	// SegmentCapacity is the maximum vectors per sealed segment
	// (0 = monolithic collection).
	SegmentCapacity int
	// IntraQueryParallel fans one query's per-segment work across cores.
	IntraQueryParallel bool
	// MaxReadConcurrent caps a single query's concurrent segment workers
	// when IntraQueryParallel is set (0 = one worker per segment). It
	// models Milvus's queryNode.scheduler.maxReadConcurrentRatio.
	MaxReadConcurrent int
	// GlobalLockFraction is the fraction of PerQueryCPU executed under a
	// process-global lock (LanceDB's interpreter).
	GlobalLockFraction float64
	// MemPerQuery and MemBudget model per-query working memory against a
	// process budget; exceeding it fails the query with ErrOutOfMemory.
	MemPerQuery int64
	MemBudget   int64
	// SupportedIndexes lists the index kinds the engine exposes,
	// mirroring Sec. III-C.
	SupportedIndexes []IndexKind
}

// Supports reports whether the engine exposes the given index kind.
func (t Traits) Supports(kind IndexKind) bool {
	for _, k := range t.SupportedIndexes {
		if k == kind {
			return true
		}
	}
	return false
}

// ErrOutOfMemory is returned when an engine exceeds its memory budget, the
// failure mode the paper hit with LanceDB-HNSW at 256 threads.
var ErrOutOfMemory = errors.New("vdb: out of memory")

// ErrUnsupportedIndex is returned when a collection requests an index the
// engine does not expose.
var ErrUnsupportedIndex = errors.New("vdb: index kind not supported by engine")

// ErrUnknownEngine is returned by EngineByName for a name outside the
// paper's engine set. It marks a user error (a bad -engine flag) as opposed
// to an internal failure; cmd/annbench maps it to a distinct exit code.
var ErrUnknownEngine = errors.New("vdb: unknown engine")

// ErrBadParams marks structurally invalid caller input — a non-positive
// dimension, an empty bulk load, a vector whose dimension does not match the
// collection. Wrap sites attach the specifics with %w.
var ErrBadParams = errors.New("vdb: bad parameters")

// Milvus returns the Milvus trait profile.
func Milvus() Traits {
	return Traits{
		Name:               "milvus",
		RPCOverhead:        110 * time.Microsecond,
		PerQueryCPU:        45 * time.Microsecond,
		IdleWake:           150 * time.Microsecond,
		SegmentCapacity:    8192,
		IntraQueryParallel: true,
		// Milvus's queryNode scheduler admits roughly one segment task
		// per core (maxReadConcurrentRatio=1): queries queue for task
		// slots long before the CPU saturates, which is why both its
		// throughput and CPU usage plateau after ~4 concurrent queries
		// on multi-segment collections (the paper's O-4 and Fig. 4).
		MaxReadConcurrent: 20,
		SupportedIndexes:  []IndexKind{IndexIVFFlat, IndexHNSW, IndexDiskANN},
	}
}

// Qdrant returns the Qdrant trait profile.
func Qdrant() Traits {
	return Traits{
		Name:             "qdrant",
		RPCOverhead:      140 * time.Microsecond,
		PerQueryCPU:      90 * time.Microsecond,
		IdleWake:         280 * time.Microsecond,
		SupportedIndexes: []IndexKind{IndexHNSW},
	}
}

// Weaviate returns the Weaviate trait profile.
func Weaviate() Traits {
	return Traits{
		Name:             "weaviate",
		RPCOverhead:      180 * time.Microsecond,
		PerQueryCPU:      450 * time.Microsecond,
		IdleWake:         450 * time.Microsecond,
		SupportedIndexes: []IndexKind{IndexHNSW},
	}
}

// LanceDB returns the LanceDB trait profile (embedded Python library).
func LanceDB() Traits {
	return Traits{
		Name:               "lancedb",
		RPCOverhead:        0,
		PerQueryCPU:        2500 * time.Microsecond,
		IdleWake:           0,
		GlobalLockFraction: 0.3,
		MemPerQuery:        96 << 20,
		MemBudget:          14 << 30,
		SupportedIndexes:   []IndexKind{IndexIVFPQ, IndexHNSWSQ},
	}
}

// EngineByName returns the trait profile for a paper engine name.
func EngineByName(name string) (Traits, error) {
	switch name {
	case "milvus":
		return Milvus(), nil
	case "qdrant":
		return Qdrant(), nil
	case "weaviate":
		return Weaviate(), nil
	case "lancedb":
		return LanceDB(), nil
	default:
		return Traits{}, fmt.Errorf("%w %q (have milvus, qdrant, weaviate, lancedb)", ErrUnknownEngine, name)
	}
}

// Setup names one (engine, index) configuration from the paper's Sec. IV
// list: five memory-based and two storage-based setups.
type Setup struct {
	Engine Traits
	Index  IndexKind
}

// Label renders the paper's setup naming, e.g. "milvus-DISKANN".
func (s Setup) Label() string { return s.Engine.Name + "-" + string(s.Index) }

// PaperSetups returns the seven configurations of Figures 2–4. LanceDB's
// per-query memory pressure applies to its in-memory HNSW only: the IVF
// variant streams posting lists from storage and survived 256 threads in the
// paper (it was excluded for throughput, not stability).
func PaperSetups() []Setup {
	lanceIVF := LanceDB()
	lanceIVF.MemPerQuery = 0
	lanceIVF.MemBudget = 0
	return []Setup{
		{Milvus(), IndexIVFFlat},
		{Milvus(), IndexHNSW},
		{Milvus(), IndexDiskANN},
		{Qdrant(), IndexHNSW},
		{Weaviate(), IndexHNSW},
		{LanceDB(), IndexHNSWSQ},
		{lanceIVF, IndexIVFPQ},
	}
}
