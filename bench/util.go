package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of vals by the nearest-rank rule,
// or 0 for an empty slice. It sorts a copy: sample slices travel with
// parallel window-index slices that must keep their order.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// scratchRoot is where a run keeps its WAL directories and trace output:
// inside the working directory, so a checkout-confined run never touches
// the system temp dir, and under the one name the root .gitignore lists.
const scratchRoot = ".bench_build"

// makeRunDir creates a fresh directory for one deployment's files.
func makeRunDir(prefix string) (string, error) {
	base := filepath.Join(scratchRoot, "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-")
}

// fsyncCalibration times a 1 KiB append + fsync in dir for about d and
// returns the median in microseconds — context for every durable number.
func fsyncCalibration(dir string, d time.Duration) (float64, error) {
	f, err := os.OpenFile(filepath.Join(dir, "fsync.cal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 1024)
	var us []float64
	for start := time.Now(); time.Since(start) < d || len(us) < 8; {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}
