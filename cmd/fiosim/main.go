// Command fiosim benchmarks the simulated NVMe device the way the paper
// uses fio (Sec. III-A): closed-loop raw reads/writes at a chosen request
// size, queue depth, and core count, reporting IOPS, bandwidth, and latency
// percentiles.
//
// Usage:
//
//	fiosim -bs 4096 -jobs 64 -cores 4 -duration 1s
//	fiosim -bs 131072 -jobs 32 -rw write
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"svdbench/internal/core"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "fiosim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fiosim", flag.ContinueOnError)
	var (
		bs       = fs.Int("bs", 4096, "request size in bytes")
		jobs     = fs.Int("jobs", 1, "concurrent jobs, one in-flight request each")
		cores    = fs.Int("cores", 1, "simulated CPU cores")
		duration = fs.Duration("duration", time.Second, "virtual run length")
		rw       = fs.String("rw", "read", "read or write")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bs <= 0 || *jobs <= 0 || *cores <= 0 {
		return fmt.Errorf("bs, jobs and cores must be positive")
	}
	if *rw != "read" && *rw != "write" {
		return fmt.Errorf("rw must be read or write, got %q", *rw)
	}

	k := sim.NewKernel()
	cpu := sim.NewCPU(k, *cores)
	dev := ssd.New(k, cpu, ssd.DefaultConfig())
	var lats []sim.Duration
	check := dev.Jobs(*jobs, *bs, *rw == "write", sim.Time(*duration), func(lat sim.Duration) { lats = append(lats, lat) })
	k.RunAll()
	if err := check(); err != nil {
		return err
	}

	ops := len(lats)
	secs := duration.Seconds()
	iops := float64(ops) / secs
	mibps := float64(ops) * float64(*bs) / (1 << 20) / secs
	fmt.Fprintf(w, "%s: bs=%d jobs=%d cores=%d duration=%v rw=%s\n", ssd.DefaultConfig().Name, *bs, *jobs, *cores, *duration, *rw)
	fmt.Fprintf(w, "  IOPS      = %.0f\n", iops)
	fmt.Fprintf(w, "  bandwidth = %.1f MiB/s (%.2f GiB/s)\n", mibps, mibps/1024)
	fmt.Fprintf(w, "  lat p50   = %v\n", core.Percentile(lats, 0.50))
	fmt.Fprintf(w, "  lat p99   = %v\n", core.Percentile(lats, 0.99))
	fmt.Fprintf(w, "  CPU busy  = %v\n", cpu.BusyTime())
	return nil
}
