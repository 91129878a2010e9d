package main

// metricDef declares one metric of the benchmark. BENCHMARK.json carries the
// name, unit, direction and (for end-to-end metrics) bound;
// TestManifestMatchesTables keeps the two in step. README.md says which clock
// each metric is on, which layer it belongs to and which end-to-end metric it
// should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -compare reports it as regressed; per-layer metrics have
	// none.
	Bound float64
	// Exact marks values that are a pure function of the seed (virtual time
	// and counts): any change at the same seed is a change in behaviour, not
	// noise.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; what an "operation" is depends on the workload (README.md,
// "Workloads").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "recall_at_10", Unit: "ratio", Better: higher, Bound: 0.02, Exact: true},
	{Name: "sim_qps", Unit: "1/s", Better: higher, Bound: 0.20, Exact: true},
	{Name: "sim_p99_us", Unit: "us", Better: lower, Bound: 0.25, Exact: true},
	{Name: "live_heap_mib", Unit: "MiB", Better: lower, Bound: 0.05},
}

// perLayer is measured by the traced pass. A workload that never enters a
// layer reports 0 for that layer's rows.
var perLayer = []metricDef{
	// internal/vec — one query against 256 packed 768-d rows.
	{Name: "vec.dot_batch_768_ns", Unit: "ns", Better: lower},
	{Name: "vec.l2sq_batch_768_ns", Unit: "ns", Better: lower},
	{Name: "vec.cosine_batch_768_ns", Unit: "ns", Better: lower},
	{Name: "vec.cosine_over_dot_768", Unit: "ratio", Better: lower},

	// internal/index/pq.
	{Name: "pq.build_table_768_ns", Unit: "ns", Better: lower},

	// internal/index — per family, over the workload's own queries with one
	// reused SearchScratch.
	{Name: "index.diskann.search_into_us_p50", Unit: "us", Better: lower},
	{Name: "index.diskann.allocs_per_search", Unit: "count", Better: lower, Exact: true},
	{Name: "index.diskann.hops_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "index.diskann.pages_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "index.diskann.dist_comps_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "index.diskann.pq_comps_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "index.diskann_page.search_into_us_p50", Unit: "us", Better: lower},
	{Name: "index.diskann_page.allocs_per_search", Unit: "count", Better: lower, Exact: true},
	{Name: "index.diskann_page.pages_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "index.ivf.search_us_p50", Unit: "us", Better: lower},
	{Name: "index.ivf.allocs_per_search", Unit: "count", Better: lower, Exact: true},
	{Name: "index.ivf.dist_comps_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "index.hnsw.search_into_us_p50", Unit: "us", Better: lower},
	{Name: "index.flat.search_into_us_p50", Unit: "us", Better: lower},
	{Name: "index.spann.search_into_us_p50", Unit: "us", Better: lower},
	{Name: "index.spann.pages_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "index.prefetch_used_frac", Unit: "ratio", Better: higher, Exact: true},
	{Name: "index.diskann.build_s", Unit: "s", Better: lower},
	{Name: "index.hnsw.build_s", Unit: "s", Better: lower},
	{Name: "index.ivf.build_s", Unit: "s", Better: lower},
	{Name: "index.spann.build_s", Unit: "s", Better: lower},
	{Name: "index.diskann.memory_mib", Unit: "MiB", Better: lower, Exact: true},
	{Name: "index.diskann.storage_amp", Unit: "ratio", Better: lower, Exact: true},
	{Name: "index.diskann_page.storage_amp", Unit: "ratio", Better: lower, Exact: true},

	// internal/storage/nodecache.
	{Name: "nodecache.hit_rate", Unit: "ratio", Better: higher, Exact: true},

	// internal/vdb, collection side.
	{Name: "collection.search_us_p50", Unit: "us", Better: lower},
	{Name: "collection.search_us_p99", Unit: "us", Better: lower},
	{Name: "collection.allocs_per_search", Unit: "count", Better: lower},
	{Name: "collection.bytes_per_search", Unit: "B", Better: lower},
	{Name: "collection.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "collection.search_batch_us_per_query", Unit: "us", Better: lower},
	{Name: "collection.record_us_per_query", Unit: "us", Better: lower},
	{Name: "collection.insert_ns", Unit: "ns", Better: lower},
	{Name: "collection.delete_ns", Unit: "ns", Better: lower},
	{Name: "collection.save_ms", Unit: "ms", Better: lower},
	{Name: "collection.load_ms", Unit: "ms", Better: lower},

	// internal/vdb engine + internal/sim + internal/storage/ssd +
	// internal/trace, host side.
	{Name: "replay.host_ns_per_read", Unit: "ns", Better: lower},
	{Name: "replay.allocs_per_simq", Unit: "count", Better: lower},
	{Name: "replay.bytes_per_simq", Unit: "B", Better: lower},
	{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
	{Name: "ssd.device.host_ns_per_read", Unit: "ns", Better: lower},
	{Name: "ssd.batcher.host_ns_per_read", Unit: "ns", Better: lower},

	// The same layers, virtual side (from core.Metrics): these explain
	// sim_qps and sim_p99_us. A change meant only to speed the simulator up
	// must leave every one identical.
	{Name: "ssd.read_ops_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "ssd.read_kib_per_query", Unit: "KiB", Better: lower, Exact: true},
	{Name: "ssd.frac_4kib", Unit: "ratio", Better: higher, Exact: true},
	{Name: "ssd.mean_queue_depth", Unit: "count", Better: lower, Exact: true},
	{Name: "ssd.max_queue_depth", Unit: "count", Better: lower, Exact: true},
	{Name: "ssd.device_busy_frac", Unit: "ratio", Better: higher, Exact: true},
	{Name: "sim.cpu_util", Unit: "ratio", Better: lower, Exact: true},
	{Name: "sim.overlap_frac", Unit: "ratio", Better: higher, Exact: true},
	{Name: "sim.p50_us", Unit: "us", Better: lower, Exact: true},
	{Name: "sim.mean_latency_us", Unit: "us", Better: lower, Exact: true},
	{Name: "trace.cache_hit_rate", Unit: "ratio", Better: higher, Exact: true},
	{Name: "ssd.calib_err_frac", Unit: "ratio", Better: lower, Exact: true},

	// internal/core, on grid-tiny.
	{Name: "core.build_s", Unit: "s", Better: lower},
	{Name: "core.tune_record_s", Unit: "s", Better: lower},
	{Name: "core.cells_s", Unit: "s", Better: lower},
	{Name: "core.cells_simq_per_s", Unit: "1/s", Better: higher},

	// internal/dataset.
	{Name: "dataset.generate_s", Unit: "s", Better: lower},

	// The benchmark itself.
	{Name: "bench.op_p90_us", Unit: "us", Better: lower},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: lower},
}

// findMetric looks a metric up in either table.
func findMetric(name string) (metricDef, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tbl {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
