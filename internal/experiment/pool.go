package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The sweeps in this package are embarrassingly parallel: every point builds
// its own sim.Scheduler from its own seed and shares no mutable state with
// any other point. RunPoints exploits that by fanning points across worker
// goroutines while assembling results in input order, so a parallel sweep
// renders byte-identical tables to a sequential one.

// sweepParallel is the worker count the sweep drivers hand to RunPoints;
// sweepProgress, if set, observes point completions. Both are process-wide
// configuration: set them once (from main or a test) before running sweeps,
// not concurrently with one.
var (
	sweepParallel = 1
	sweepProgress func(done, total int)
)

// SetParallelism sets the worker count used by every sweep driver in this
// package. n <= 0 selects GOMAXPROCS; 1 (the default) runs sequentially.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	sweepParallel = n
}

// Parallelism returns the sweep drivers' current worker count.
func Parallelism() int { return sweepParallel }

// SetProgress installs a callback observing sweep progress: it is called
// once per completed point with the number done so far and the sweep total.
// Calls are serialized but may come from worker goroutines. nil disables.
func SetProgress(fn func(done, total int)) { sweepProgress = fn }

// RunPoints runs fn over every point on up to parallel workers and returns
// the results in input order. Each fn call must be self-contained (build its
// own scheduler, share nothing mutable) — which every experiment point in
// this package is. parallel <= 0 selects GOMAXPROCS. progress, if non-nil,
// is invoked (serialized) after each point completes.
func RunPoints[C, R any](points []C, parallel int, progress func(done, total int), fn func(C) R) []R {
	total := len(points)
	out := make([]R, total)
	if total == 0 {
		return out
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > total {
		parallel = total
	}
	if parallel == 1 {
		for i := range points {
			out[i] = fn(points[i])
			if progress != nil {
				progress(i+1, total)
			}
		}
		return out
	}
	var (
		next   atomic.Int64 // next point index to claim
		progMu sync.Mutex
		done   int // guarded by progMu, so progress sees it ascend
		wg     sync.WaitGroup
	)
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				out[i] = fn(points[i])
				if progress != nil {
					progMu.Lock()
					done++
					progress(done, total)
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// runPoints is the sweep drivers' entry: RunPoints with the package-level
// parallelism and progress configuration.
func runPoints[C, R any](points []C, fn func(C) R) []R {
	return RunPoints(points, sweepParallel, sweepProgress, fn)
}
