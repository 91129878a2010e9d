package index

// SearchOption is a functional option over SearchOptions, the ergonomic
// layer of the search API. SearchOptions itself stays the stable wire form;
// options give call sites self-describing construction:
//
//	opts := index.NewSearchOptions(index.WithSearchList(100), index.WithBeamWidth(4))
//
// Options apply in order, so later options win over earlier ones.
type SearchOption func(*SearchOptions)

// WithNProbe sets the number of candidate clusters an IVF search scans.
func WithNProbe(n int) SearchOption { return func(o *SearchOptions) { o.NProbe = n } }

// WithEfSearch sets HNSW's dynamic candidate list size.
func WithEfSearch(ef int) SearchOption { return func(o *SearchOptions) { o.EfSearch = ef } }

// WithSearchList sets DiskANN's candidate list size (L).
func WithSearchList(l int) SearchOption { return func(o *SearchOptions) { o.SearchList = l } }

// WithBeamWidth sets DiskANN's beam width (W): frontier nodes fetched from
// storage per search iteration.
func WithBeamWidth(w int) SearchOption { return func(o *SearchOptions) { o.BeamWidth = w } }

// WithNodeCacheNodes sets the node-cache capacity, in nodes, that
// storage-based indexes (DiskANN, SPANN) consult before issuing beam or
// posting reads. Zero (the default) disables the cache.
func WithNodeCacheNodes(n int) SearchOption {
	return func(o *SearchOptions) { o.NodeCacheNodes = n }
}

// WithNodeCachePolicy selects the node-cache replacement policy:
// NodeCacheStatic or NodeCacheLRU (the default when empty).
func WithNodeCachePolicy(policy string) SearchOption {
	return func(o *SearchOptions) { o.NodeCachePolicy = policy }
}

// WithLookAhead sets the pipeline depth of the storage-based searches: the
// number of top unexpanded candidates whose pages are speculatively
// prefetched while the current hop's distances are scored. Zero (the
// default) disables prefetching. Results and demand I/O stay byte-identical
// to the synchronous search at any depth.
func WithLookAhead(n int) SearchOption { return func(o *SearchOptions) { o.LookAhead = n } }

// WithLayout selects the on-disk layout of a storage-based search: LayoutID
// (one node per page slot, the default when empty) or LayoutPage (page-node
// co-design: beam search over 4 KiB page groups, scoring every resident
// node a fetch returns).
func WithLayout(layout string) SearchOption {
	return func(o *SearchOptions) { o.Layout = layout }
}

// WithQueryConcurrency bounds how many queries of one SearchBatch run
// concurrently (0 means one per core, GOMAXPROCS).
func WithQueryConcurrency(n int) SearchOption {
	return func(o *SearchOptions) { o.QueryConcurrency = n }
}

// WithFilter restricts results to ids for which f returns true (nil clears
// the filter).
func WithFilter(f func(id int32) bool) SearchOption {
	return func(o *SearchOptions) { o.Filter = f }
}

// NewSearchOptions builds SearchOptions from options over the zero value.
func NewSearchOptions(opts ...SearchOption) SearchOptions {
	var o SearchOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// With returns a copy of the options with the given options applied; the
// receiver is unchanged.
func (o SearchOptions) With(opts ...SearchOption) SearchOptions {
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
