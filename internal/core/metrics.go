// Package core implements the paper's contribution: the characterisation
// framework. It drives recorded query executions through the simulated
// engines with closed-loop query threads (the VectorDBBench methodology of
// Sec. III-B), collects throughput, tail latency, CPU utilisation and I/O
// statistics, tunes index parameters to the paper's recall targets
// (Table II), and exposes one experiment per table and figure.
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"svdbench/internal/sim"
)

// Percentile returns the p-quantile (0 < p ≤ 1) of the samples using the
// nearest-rank method the paper's tooling uses for P99. It returns 0 for an
// empty sample set and leaves samples unchanged.
func Percentile(samples []sim.Duration, p float64) sim.Duration {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return rank(sorted, p)
}

// rank is Percentile over samples already sorted ascending.
func rank(sorted []sim.Duration, p float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(p*float64(len(sorted)))) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(sorted) {
		r = len(sorted) - 1
	}
	return sorted[r]
}

// MeanDuration averages the samples.
func MeanDuration(samples []sim.Duration) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, s := range samples {
		sum += s
	}
	return sum / sim.Duration(len(samples))
}

// MeanStd returns mean and population standard deviation of float values.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// Metrics is the aggregate of one run (or the mean of several repetitions).
type Metrics struct {
	// QPS is completed queries per virtual second.
	QPS float64
	// QPSStd is the std-dev of QPS across repetitions.
	QPSStd float64
	// P50, P90 and P99 are latency percentiles; the paper reports P99.
	P50 sim.Duration
	P90 sim.Duration
	P99 sim.Duration
	// P99Std is the std-dev of P99 across repetitions.
	P99Std sim.Duration
	// MeanLatency is the average query latency.
	MeanLatency sim.Duration
	// CPUUtil is mean global CPU utilisation in [0,1] (the paper's Fig. 4
	// y-axis, where 1.0 means all cores fully busy).
	CPUUtil float64
	// ReadMiBps is the mean device read bandwidth during the run.
	ReadMiBps float64
	// WriteMiBps is the mean device write bandwidth.
	WriteMiBps float64
	// BytesPerQuery is read bytes divided by completed queries (the
	// paper's "per-query average bandwidth", Fig. 6/11/15).
	BytesPerQuery float64
	// Frac4KiB is the fraction of I/O requests of exactly 4 KiB (O-15).
	Frac4KiB float64
	// MeanReadBytes is the average read request size.
	MeanReadBytes float64
	// ReadOps counts device read requests issued during the run.
	ReadOps int64
	// CacheHits counts pages the node cache served instead of the device;
	// CacheHitRate is the byte fraction of would-be reads it absorbed.
	// Both stay zero when no node cache is configured.
	CacheHits    int64
	CacheHitRate float64
	// MeanQueueDepth and MaxQueueDepth describe the device's outstanding
	// request count over the run: the time-weighted mean and the peak.
	MeanQueueDepth float64
	MaxQueueDepth  int
	// DeviceBusyFrac, CPUBusyFrac and OverlapFrac are the fractions of the
	// measurement window the device had requests outstanding, the CPU had a
	// burst on a core, and both at once — the overlap a pipelined search
	// exists to create (≈0 for a synchronous beam search).
	DeviceBusyFrac float64
	CPUBusyFrac    float64
	OverlapFrac    float64
	// Served counts completed queries; Failed counts rejected ones
	// (e.g. out of memory).
	Served int64
	Failed int64
}

// KiBPerQuery converts BytesPerQuery to KiB for reporting.
func (m Metrics) KiBPerQuery() float64 { return m.BytesPerQuery / 1024 }

func (m Metrics) String() string {
	s := fmt.Sprintf("qps=%.1f±%.1f p99=%v cpu=%.1f%% read=%.1fMiB/s perQ=%.1fKiB served=%d failed=%d",
		m.QPS, m.QPSStd, m.P99, 100*m.CPUUtil, m.ReadMiBps, m.KiBPerQuery(), m.Served, m.Failed)
	if m.CacheHits > 0 {
		s += fmt.Sprintf(" cache=%.1f%%", 100*m.CacheHitRate)
	}
	return s
}

// AggregateRuns folds repetition metrics into one Metrics with mean and
// standard deviation for QPS and P99 (the paper reports mean ± std over five
// repetitions).
func AggregateRuns(reps []Metrics) Metrics {
	if len(reps) == 0 {
		return Metrics{}
	}
	qps := make([]float64, len(reps))
	p99 := make([]float64, len(reps))
	var out Metrics
	for i, r := range reps {
		qps[i] = r.QPS
		p99[i] = float64(r.P99)
		out.P50 += r.P50 / sim.Duration(len(reps))
		out.P90 += r.P90 / sim.Duration(len(reps))
		out.MeanLatency += r.MeanLatency / sim.Duration(len(reps))
		out.CPUUtil += r.CPUUtil / float64(len(reps))
		out.ReadMiBps += r.ReadMiBps / float64(len(reps))
		out.WriteMiBps += r.WriteMiBps / float64(len(reps))
		out.BytesPerQuery += r.BytesPerQuery / float64(len(reps))
		out.Frac4KiB += r.Frac4KiB / float64(len(reps))
		out.MeanReadBytes += r.MeanReadBytes / float64(len(reps))
		out.CacheHitRate += r.CacheHitRate / float64(len(reps))
		out.MeanQueueDepth += r.MeanQueueDepth / float64(len(reps))
		out.DeviceBusyFrac += r.DeviceBusyFrac / float64(len(reps))
		out.CPUBusyFrac += r.CPUBusyFrac / float64(len(reps))
		out.OverlapFrac += r.OverlapFrac / float64(len(reps))
		if r.MaxQueueDepth > out.MaxQueueDepth {
			out.MaxQueueDepth = r.MaxQueueDepth
		}
		out.ReadOps += r.ReadOps
		out.CacheHits += r.CacheHits
		out.Served += r.Served
		out.Failed += r.Failed
	}
	m, s := MeanStd(qps)
	out.QPS, out.QPSStd = m, s
	m, s = MeanStd(p99)
	out.P99, out.P99Std = sim.Duration(m), sim.Duration(s)
	return out
}

// fmtDur renders a duration in microseconds for tabular output, matching the
// paper's latency axes.
func fmtDur(d sim.Duration) string {
	return fmt.Sprintf("%.0f", float64(d)/float64(time.Microsecond))
}
