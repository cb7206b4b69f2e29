// Package pool provides the worker-pool primitive behind every bounded
// fan-out in the repository: parallel feature extraction
// (features.ExtractBatch), the library batch method
// (core.Detector.ScoreBatchCtx), the
// corpus build (internal/dataset), the feed scheduler's workers and the
// HTTP server's batch and NDJSON stream fan-out (internal/serve). One
// implementation means one place for pool semantics: order
// preservation, inline execution at workers==1, GOMAXPROCS defaulting,
// panic propagation, cancellation. It imports only the standard
// library, so it stays inside the detector's leaf closure (make
// leaf-check).
//
// Each call spins up its own short-lived workers; the bound is
// per-call. Callers that need a process-wide concurrency limit across
// many concurrent batches (the HTTP server) layer a semaphore on top.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// ForEachIndex runs fn for every index in [0, n) across a bounded
// worker pool. fn must be safe to call concurrently for distinct
// indexes; each index is processed exactly once. workers <= 0 uses
// GOMAXPROCS; workers == 1 runs inline with zero goroutine overhead.
//
// A panic in fn is always raised on the caller's goroutine, so
// net/http's per-handler recover contains it — a worker-goroutine panic
// must never take down a whole serving process. Inline execution
// (workers == 1) propagates it immediately; parallel execution re-raises
// the first panic after the batch drains, so remaining indexes may
// still run first.
func ForEachIndex(n, workers int, fn func(i int)) {
	// context.Background is never done, so every index runs and the
	// error is statically nil.
	_ = ForEachIndexCtx(context.Background(), n, workers, fn)
}

// ForEachIndexCtx is ForEachIndex with cancellation: workers observe
// ctx between items, so once ctx is done no *new* index is started —
// in-flight fn calls run to completion (fn receives no context; keep
// items small enough that item granularity is an acceptable
// cancellation latency). It returns nil when every index ran, or
// context.Cause(ctx) when cancellation cut the batch short; the caller
// learns *which* indexes ran only through fn's own side effects, so
// batch callers record per-index completion themselves.
//
// Panic propagation matches ForEachIndex: the first fn panic re-raises
// on the caller's goroutine after the pool drains.
func ForEachIndexCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers == 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return context.Cause(ctx)
			default:
			}
			fn(i)
		}
		return nil
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case i, ok := <-next:
					if !ok {
						return
					}
					func() {
						defer func() {
							if r := recover(); r != nil {
								panicOnce.Do(func() { panicked = r })
							}
						}()
						fn(i)
					}()
				}
			}
		}()
	}
	// An unbuffered send only completes when a worker has taken the
	// index, and a taken index always runs fn — so "all n sent" means
	// "all n ran" even if ctx fires while the last items are in flight.
	fed := 0
feed:
	for ; fed < n; fed++ {
		select {
		case next <- fed:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if fed == n {
		return nil
	}
	return context.Cause(ctx)
}
