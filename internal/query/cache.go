package query

import (
	"context"
	"strings"
	"sync"

	"foresight/internal/core"
)

// This file implements the engine's memoized scoring cache. Foresight's
// interactivity rests on answering insight queries in near-real-time
// (paper §3), and the dominant workload is repeated queries over the
// same dataset: every carousel refresh, overview, neighborhood and
// focus update re-ranks the same candidate tuples. Scores depend only
// on (class, metric, tuple, approx) for a fixed frame/profile, so they
// are perfectly cacheable. The cache memoizes each scored slot, stamps
// entries with a generation that SetProfile/InvalidateCache bump, and
// collapses duplicate concurrent scoring of the same key
// singleflight-style so a thundering herd of identical requests
// computes each score exactly once. Filters (MinScore/MaxScore, Fixed,
// Semantic) and ranking always apply after the memo lookup, so results
// are bit-identical with the cache on or off.
//
// Cancellation threads through the singleflight protocol: a waiter
// blocks on the owner's done channel AND its own ctx, so an expired
// deadline or a disconnected client returns promptly even while the
// owner is still scoring. An owner that bails out (its ctx fired, or
// its scorer panicked) marks its unfinished slots abandoned and wakes
// every waiter; waiters score abandoned candidates themselves instead
// of inheriting work nobody finished. Scores completed before a
// cancellation are published to the memo as usual, so an abandoned
// request's partial work still warms the cache for the retry.

// CacheStats is a point-in-time snapshot of the engine's scoring
// cache, exposed via Engine.CacheStats and the server's /api/stats.
type CacheStats struct {
	// Hits counts candidate lookups answered from the memo.
	Hits uint64 `json:"hits"`
	// Misses counts candidate lookups that needed scoring (including
	// lookups that waited on another goroutine's in-flight scoring).
	Misses uint64 `json:"misses"`
	// Waits counts the subset of misses that blocked on another
	// goroutine's in-flight computation instead of scoring themselves
	// (the singleflight collapse of a thundering herd).
	Waits uint64 `json:"waits"`
	// Entries is the number of memoized scores in the live generation.
	Entries int `json:"entries"`
	// Generation increments on every invalidation (SetProfile or
	// InvalidateCache); entries from older generations are gone.
	Generation uint64 `json:"generation"`
	// Enabled reports whether lookups consult the memo at all.
	Enabled bool `json:"enabled"`
}

// cacheKey identifies one scored slot: the candidate tuple of a class
// under a resolved metric, on the exact or the approximate backend.
type cacheKey struct {
	class  string
	metric string
	attrs  string // tuple joined with \x1f (never appears in names)
	approx bool
}

func keyFor(class, metric string, approx bool, attrs []string) cacheKey {
	return cacheKey{class: class, metric: metric, attrs: strings.Join(attrs, "\x1f"), approx: approx}
}

// inflightSlot is one in-flight scoring computation. The owner stores
// the result and closes done; waiters block on done (or their own
// ctx) and read in. abandoned is set (before close) when the owner
// gave up without scoring — waiters then score the candidate
// themselves. Both fields are published by the channel close, so
// waiters read them without a lock.
type inflightSlot struct {
	done      chan struct{}
	in        core.Insight
	abandoned bool
}

// scoreCache is the concurrent, generation-stamped memo plus the
// singleflight map. All fields are guarded by mu; scoring itself runs
// outside the lock.
type scoreCache struct {
	mu       sync.Mutex
	disabled bool
	gen      uint64
	entries  map[cacheKey]core.Insight
	inflight map[cacheKey]*inflightSlot
	hits     uint64
	misses   uint64
	waits    uint64
}

func newScoreCache() *scoreCache {
	return &scoreCache{
		entries:  make(map[cacheKey]core.Insight),
		inflight: make(map[cacheKey]*inflightSlot),
	}
}

// invalidate starts a new generation: memoized entries are dropped and
// in-flight computations from the old generation publish nowhere.
// Counters survive so hit ratios remain observable across frames.
func (sc *scoreCache) invalidate() {
	sc.mu.Lock()
	sc.gen++
	sc.entries = make(map[cacheKey]core.Insight)
	sc.inflight = make(map[cacheKey]*inflightSlot)
	sc.mu.Unlock()
}

// generation returns the live generation; the engine reads it under
// its own lock to stamp snapshots.
func (sc *scoreCache) generation() uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.gen
}

// SetCacheEnabled toggles the scoring memo. Disabling does not drop
// existing entries; re-enabling resumes serving them (call
// InvalidateCache for a cold start).
func (e *Engine) SetCacheEnabled(on bool) {
	e.cache.mu.Lock()
	e.cache.disabled = !on
	e.cache.mu.Unlock()
}

// CacheEnabled reports whether score lookups consult the memo.
func (e *Engine) CacheEnabled() bool {
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	return !e.cache.disabled
}

// InvalidateCache drops every memoized score and bumps the cache
// generation. SetProfile calls this automatically; call it directly
// after mutating frame-derived state the engine cannot observe.
func (e *Engine) InvalidateCache() { e.cache.invalidate() }

// CacheStats returns a snapshot of the scoring-cache counters.
func (e *Engine) CacheStats() CacheStats {
	sc := e.cache
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return CacheStats{
		Hits:       sc.hits,
		Misses:     sc.misses,
		Waits:      sc.waits,
		Entries:    len(sc.entries),
		Generation: sc.gen,
		Enabled:    !sc.disabled,
	}
}

// lookupAll peeks the memo for a batch of candidates without scoring,
// waiting, or creating in-flight slots: slot i is nil unless the live
// generation matches gen and holds a memoized score for candidate i.
// The pruned scoring path uses this to seed its top-k threshold from
// scores that are already known — hits are counted (the candidates
// are answered from the memo and never reach scoreCandidates), misses
// are not (a missing candidate is either scored later, where it
// counts normally, or pruned, in which case it was never looked up as
// work).
func (sc *scoreCache) lookupAll(gen uint64, class, metric string, approx bool, cands [][]string) []*core.Insight {
	out := make([]*core.Insight, len(cands))
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.disabled || sc.gen != gen {
		return out
	}
	for i, attrs := range cands {
		if in, ok := sc.entries[keyFor(class, metric, approx, attrs)]; ok {
			in := in
			out[i] = &in
			sc.hits++
		}
	}
	return out
}

// scoreCandidates returns one scored slot per candidate tuple, in
// candidate order (scoring errors become zero-value slots with NaN
// score, recognizable by an empty Class). Slots are served from the
// memo when possible; misses are scored in class batches with the
// engine's worker pool and published, and concurrent duplicate scoring
// of the same key is collapsed by waiting on the in-flight owner
// instead of recomputing.
//
// Scoring runs entirely against the caller's snapshot. If the memo's
// generation has moved past the snapshot's (an ingest or SetProfile
// landed after the snapshot was taken), the memo is bypassed both ways
// — stale scores are neither consumed nor published — so the response
// stays internally consistent with its snapshot.
//
// The context bounds the whole batch: scoring stops dispatching and
// singleflight waits unblock as soon as ctx is done, returning
// ctx.Err(). Whatever was scored before the cutoff is already in the
// memo. A panicking scorer abandons this call's unfinished slots —
// every slot of its batch, and of batches not yet run — waking
// cross-request waiters before the panic propagates to the caller.
func (e *Engine) scoreCandidates(ctx context.Context, snap snapshot, c core.Class, cands [][]string, approx bool, metric string) ([]core.Insight, error) {
	sc := e.cache
	sc.mu.Lock()
	if sc.disabled || sc.gen != snap.gen {
		sc.mu.Unlock()
		return e.scoreCandidatesParallel(ctx, snap, c, cands, approx, metric)
	}
	gen := snap.gen
	class := c.Name()
	out := make([]core.Insight, len(cands))
	keys := make([]cacheKey, len(cands))
	slots := make([]*inflightSlot, len(cands))
	var owned, waiting []int
	for i, attrs := range cands {
		k := keyFor(class, metric, approx, attrs)
		keys[i] = k
		if in, ok := sc.entries[k]; ok {
			out[i] = in
			sc.hits++
			continue
		}
		sc.misses++
		if sl, ok := sc.inflight[k]; ok {
			sc.waits++
			slots[i] = sl
			waiting = append(waiting, i)
			continue
		}
		sl := &inflightSlot{done: make(chan struct{})}
		sc.inflight[k] = sl
		slots[i] = sl
		owned = append(owned, i)
	}
	sc.mu.Unlock()

	// Abandon any owned slot that never completed, whatever the exit
	// path (ctx error, waiter-loop bailout, scorer panic): waiters are
	// woken with abandoned set so the work is retried by whoever still
	// wants it, never inherited as a hang. Runs after the pool has
	// quiesced, so no owner can race the close.
	defer func() {
		for _, i := range owned {
			sl := slots[i]
			select {
			case <-sl.done:
			default:
				sc.mu.Lock()
				if sc.gen == gen && sc.inflight[keys[i]] == sl {
					delete(sc.inflight, keys[i])
				}
				sc.mu.Unlock()
				sl.abandoned = true
				close(sl.done)
			}
		}
	}()

	ownedCands := make([][]string, len(owned))
	for j, i := range owned {
		ownedCands[j] = cands[i]
	}
	err := e.scoreBatches(ctx, snap, c, ownedCands, approx, metric, func(start int, ins []core.Insight) {
		for j, in := range ins {
			i := owned[start+j]
			out[i] = in
			slots[i].in = in
			close(slots[i].done)
		}
		sc.mu.Lock()
		// Publish only into the generation the computation started in;
		// results that straddle an invalidation are returned to their
		// callers but never pollute the new generation.
		if sc.gen == gen {
			for j := range ins {
				k := keys[owned[start+j]]
				sc.entries[k] = ins[j]
				delete(sc.inflight, k)
			}
		}
		sc.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	var rescore []int
	for _, i := range waiting {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-slots[i].done:
		}
		if sl := slots[i]; !sl.abandoned {
			out[i] = sl.in
			continue
		}
		rescore = append(rescore, i)
	}
	if len(rescore) == 0 {
		return out, nil
	}
	// The owners gave up before scoring these keys (cancelled or
	// panicked); score them here rather than trusting anyone else to.
	rescoreCands := make([][]string, len(rescore))
	for j, i := range rescore {
		rescoreCands[j] = cands[i]
	}
	err = e.scoreBatches(ctx, snap, c, rescoreCands, approx, metric, func(start int, ins []core.Insight) {
		for j, in := range ins {
			out[rescore[start+j]] = in
		}
		sc.mu.Lock()
		if sc.gen == gen {
			for j := range ins {
				sc.entries[keys[rescore[start+j]]] = ins[j]
			}
		}
		sc.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
