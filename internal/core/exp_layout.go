package core

import (
	"context"
	"fmt"
	"io"

	"svdbench/internal/index"
	"svdbench/internal/index/diskann"
	"svdbench/internal/vdb"
)

// runLayout measures the page-node layout (Extension G): DiskANN's on-disk
// pages regrouped so each 4 KiB page holds several graph-adjacent nodes, the
// page becoming the unit the beam search fetches, scores and expands. Three
// cells over the monolithic Milvus-DiskANN stack:
//
//   - id: the tuned node-per-page baseline (Table II parameters).
//   - page, equal L: the page layout at the baseline's search_list — one
//     list slot now covers a whole page group, so recall rises while reads
//     fall.
//   - page, tuned L: search_list re-tuned down to the baseline's recall
//     (±0.5 pt), the equal-accuracy point where the read savings are the
//     honest headline.
func runLayout(ctx context.Context, b *Bench, w io.Writer) error {
	st, err := b.StackContext(ctx, "cohere-large", vdb.Setup{Engine: monoMilvus(), Index: vdb.IndexDiskANN})
	if err != nil {
		return err
	}
	s := storageStacks{b: b, da: st} // DiskANN rows only: no SPANN build

	pageEq := st.Opts.With(index.WithLayout(index.LayoutPage))
	// Re-tune the page layout's search_list to the ID baseline's achieved
	// recall. L counts page groups under the page layout, and every fetched
	// group scores all its resident nodes, so the equal-recall L is far
	// below the node-count L of the baseline.
	hi := 2 * st.Opts.SearchList
	if hi < 16 {
		hi = 16
	}
	tunedL := tuneUpTo(1, hi, st.Recall-0.005, func(v int) float64 {
		return st.RecallFor(pageEq.With(index.WithSearchList(v)))
	})
	pageTuned := pageEq.With(index.WithSearchList(tunedL))

	labels := []string{"id", "page (equal L)", "page (tuned L)"}
	cfg := RunConfig{Threads: 4}
	rows := []storageRow{{opts: st.Opts, cfg: cfg}, {opts: pageEq, cfg: cfg}, {opts: pageTuned, cfg: cfg}}
	outs, err := s.measure(ctx, rows)
	if err != nil {
		return err
	}

	tw := table(w, "layout", "search_list", "recall@10", "hops/query", "dev reads/query", "KiB/query", "QPS", "mean (µs)", "P99 (µs)")
	for i, r := range rows {
		o := outs[i]
		hopsPerQ := 0.0
		if o.nq > 0 {
			hopsPerQ = float64(o.stats.Hops) / float64(o.nq)
		}
		row(tw, labels[i],
			fmt.Sprintf("%d", r.opts.SearchList),
			fmt.Sprintf("%.3f", o.recall),
			fmt.Sprintf("%.1f", hopsPerQ),
			fmt.Sprintf("%.1f", o.readsPerQuery()),
			fmt.Sprintf("%.1f", o.m.KiBPerQuery()),
			fmt.Sprintf("%.1f", o.m.QPS),
			fmtDur(o.m.MeanLatency),
			fmtDur(o.m.P99))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	capacity := 0
	for _, seg := range st.Col.Segments() {
		if ix, ok := seg.Index.(*diskann.Index); ok {
			capacity = ix.PageCapacity()
			break
		}
	}
	reduction := 0.0
	if id := outs[0].readsPerQuery(); id > 0 {
		reduction = 1 - outs[2].readsPerQuery()/id
	}
	fmt.Fprintf(w, "\n(Page-node co-design: %d nodes share each 4 KiB page with their nearest graph\n", capacity)
	fmt.Fprintf(w, " neighbours, so one device read feeds %d candidate scores instead of one. At the\n", capacity)
	fmt.Fprintf(w, " ID baseline's recall the tuned page layout issues %.0f%% fewer device reads per\n", 100*reduction)
	fmt.Fprintln(w, " query; the equal-L row shows the same effect spent on recall instead of reads.)")
	return nil
}

// monoMilvus is the monolithic Milvus engine the single-segment extensions
// measure (segment capacity 0 = one sealed segment).
func monoMilvus() vdb.Traits {
	mono := vdb.Milvus()
	mono.Name = "milvus-monolithic"
	mono.SegmentCapacity = 0
	return mono
}
