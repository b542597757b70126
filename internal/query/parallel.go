package query

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// The paper's stated future work is to "improve the scalability with
// respect to columns by incorporating parallel search methods that
// speed up insight queries". This file implements that extension: the
// engine can fan candidate scoring out over a worker pool. Results
// are bit-identical to sequential execution (workers write to
// per-candidate slots; filtering and ranking happen after the
// barrier), so parallelism is purely a throughput knob. Execute and
// Overview both route their scoring loops through this pool (via the
// memo in cache.go), so SetWorkers applies to carousels, ad-hoc
// queries, and heat maps alike. The unit of work is a batch: a run of
// consecutive candidates that a core.BatchScorer scores together
// (segmentation's categorical z's of one (x, y) pair share their
// pairwise distances); every other class's batch is one candidate.
//
// The pool is also where cancellation and panic isolation live:
// runParallel stops dispatching work the moment its context is done
// (an abandoned request releases its workers instead of completing
// dead work), and a panicking scorer is caught in the worker, the
// pool drained, and the panic re-raised on the calling goroutine so
// one request's crash never takes down unrelated goroutines or the
// process (the HTTP layer converts it to a 500).

// SetWorkers sets the engine's scoring parallelism: 1 (default)
// scores sequentially, 0 selects GOMAXPROCS, n > 1 uses n goroutines.
func (e *Engine) SetWorkers(n int) {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	e.workers = n
	e.mu.Unlock()
}

// Workers reports the current scoring parallelism.
func (e *Engine) Workers() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.workers < 1 {
		return 1
	}
	return e.workers
}

// SetBuildShards sets the profile-build parallelism used by large
// batch ingests (and advertised to callers constructing profiles for
// this engine). The value follows the sketch layer's shard
// convention, not SetWorkers': 0 (default) and 1 build sequentially —
// bit-identical to the pre-sharding path — and n < 0 selects
// GOMAXPROCS.
func (e *Engine) SetBuildShards(n int) {
	e.mu.Lock()
	e.buildShards = n
	e.mu.Unlock()
}

// BuildShards reports the configured profile-build parallelism.
func (e *Engine) BuildShards() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.buildShards
}

// poolPanic carries a recovered worker panic (plus the worker's stack)
// across the pool barrier so it can be re-raised on the caller.
type poolPanic struct {
	val   interface{}
	stack []byte
}

// String renders the original panic value with the worker stack, so a
// recovered pool panic still points at the scorer that crashed.
func (p *poolPanic) String() string {
	return fmt.Sprintf("%v\nworker stack:\n%s", p.val, p.stack)
}

// runParallel applies fn to every index in [0, n) using up to the
// given number of worker goroutines. Small inputs run sequentially:
// below two indices per worker the pool costs more than it saves. The
// scoring paths index class batches (see scoreBatches), so n counts
// batches, not candidates.
//
// Dispatch is context-aware: once ctx is done no further index is
// started (indices already running finish — cancellation granularity
// is one batch), and the context error is returned so callers can
// mark the request partial. A panic in fn is recovered in the worker,
// dispatch stops, remaining workers drain, and the panic is re-raised
// on the calling goroutine once the pool has quiesced; the other
// workers' completed slots stay valid.
func runParallel(ctx context.Context, workers, n int, fn func(int)) error {
	if workers <= 1 || n < 2*workers {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[poolPanic]
		stop     = make(chan struct{}) // closed on first worker panic
		stopOnce sync.Once
		next     = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func(i int) {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &poolPanic{val: r, stack: debug.Stack()})
							stopOnce.Do(func() { close(stop) })
						}
					}()
					fn(i)
				}(i)
			}
		}()
	}
	done := ctx.Done()
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break feed
		case <-stop:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return ctx.Err()
}

// scoreBatch scores one batch of candidates (a run that core.BatchEnds
// groups; a single candidate for classes without batching), folding
// scoring errors into zero-value slots with NaN score (empty Class
// marks the error; callers filter). A batch is the unit of work the
// worker pool runs.
func scoreBatch(c core.Class, f *frame.Frame, p *sketch.DatasetProfile, batch [][]string, approx bool, metric string) []core.Insight {
	ins, errs := core.ScoreBatch(c, f, p, batch, metric, approx)
	for i, err := range errs {
		if err != nil {
			ins[i] = core.Insight{Score: math.NaN()}
		}
	}
	return ins
}

// scoreBatches scores cands with the engine's worker pool, one class
// batch per unit of work, and hands each finished batch to done with
// the offset of its first candidate in cands. done runs on the worker
// that scored the batch, so it must be safe for concurrent use across
// distinct batches. A panicking batch never reaches done. On
// cancellation the batches not yet started are skipped and the
// context error is returned.
func (e *Engine) scoreBatches(ctx context.Context, snap snapshot, c core.Class, cands [][]string, approx bool, metric string, done func(start int, ins []core.Insight)) error {
	ends := core.BatchEnds(c, cands)
	return runParallel(ctx, e.Workers(), len(ends), func(b int) {
		start := 0
		if b > 0 {
			start = ends[b-1]
		}
		batch := cands[start:ends[b]]
		e.inflightScores.Add(int64(len(batch)))
		defer e.inflightScores.Add(-int64(len(batch)))
		done(start, scoreBatch(c, snap.frame, snap.profile, batch, approx, metric))
	})
}

// scoreCandidatesParallel scores every candidate tuple of the snapshot
// with the engine's worker pool, bypassing the memo (one slot per
// candidate). On cancellation it returns only the context error.
func (e *Engine) scoreCandidatesParallel(ctx context.Context, snap snapshot, c core.Class, cands [][]string, approx bool, metric string) ([]core.Insight, error) {
	out := make([]core.Insight, len(cands))
	err := e.scoreBatches(ctx, snap, c, cands, approx, metric, func(start int, ins []core.Insight) {
		copy(out[start:], ins)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
