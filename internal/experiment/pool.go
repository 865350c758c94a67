package experiment

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bufqos/internal/metrics"
)

// queueWaitBuckets bound the pool.queue_wait_seconds histogram: jobs
// conceptually enqueue when the pool starts, so waits range from
// microseconds (first jobs) to the whole sweep duration (last jobs).
var queueWaitBuckets = metrics.ExpBuckets(0.001, 2, 24)

// ForEachJob runs fn(i) for every i in [0, n), fanning the calls onto
// up to workers goroutines (0 means GOMAXPROCS; 1 forces the inline
// sequential path). Jobs must be independent: callers pre-size result
// slots indexed by i so the output is identical for any worker count.
// Every job's error is recorded and the first one in index order is
// returned, so the reported error does not depend on goroutine
// scheduling; once a job fails, unstarted jobs are skipped.
//
// A cancelled ctx stops workers from picking up further jobs — in-flight
// fn calls finish (fn may also observe ctx itself) — and ForEachJob
// returns ctx.Err(). Completed jobs' results remain valid; callers that
// track per-job completion can salvage them.
//
// onDone, when non-nil, is called once after each successful job with
// its index (possibly from several goroutines at once). reg, when
// non-nil, receives per-worker "pool.runs_completed.worker<N>" counters
// and a "pool.queue_wait_seconds" histogram of how long each job sat
// queued before a worker picked it up. These execution metrics depend
// on the worker count by nature, unlike the simulation metrics.
func ForEachJob(ctx context.Context, workers, n int, reg *metrics.Registry, onDone func(i int), fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var mWait *metrics.Histogram
	if reg != nil {
		mWait = reg.Histogram("pool.queue_wait_seconds", queueWaitBuckets)
	}
	start := time.Now()
	if workers <= 1 {
		var mRuns *metrics.Counter
		if reg != nil {
			mRuns = reg.Counter("pool.runs_completed.worker0")
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			mWait.Observe(time.Since(start).Seconds())
			if err := fn(i); err != nil {
				return err
			}
			mRuns.Inc()
			if onDone != nil {
				onDone(i)
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		var mRuns *metrics.Counter
		if reg != nil {
			mRuns = reg.Counter("pool.runs_completed.worker" + strconv.Itoa(w))
		}
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				mWait.Observe(time.Since(start).Seconds())
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				mRuns.Inc()
				if onDone != nil {
					onDone(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
