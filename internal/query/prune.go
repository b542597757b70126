package query

import (
	"context"
	"math"
	"sort"

	"foresight/internal/core"
)

// This file implements threshold-style top-k pruning for the scoring
// path (ISSUE 9 tentpole; the first change that makes the engine's
// asymptotics depend on k rather than the candidate count). Classes
// that implement core.Bounder expose a cheap upper bound per candidate
// derived from the sketch profile; scoreClass then runs a two-phase
// pass: bound every candidate, seed the top-k threshold with memoized
// scores, and fully score candidates in descending-bound order —
// stopping as soon as the next bound falls strictly below the running
// threshold max(kth-best filtered score, MinScore). Skipped candidates
// are never scored and never enter the memo.
//
// Equivalence argument (results are bit-identical to -prune=off): a
// candidate is skipped only when bound < t for the threshold t at that
// moment, and bounds are sound (score ≤ bound, enforced by the
// selfcheck gate and E16). If t came from MinScore, the score would
// have been dropped by the strength filter; if t is the kth-best
// filtered score seen so far, at least k candidates outscore it
// strictly, so it cannot enter the top k (core.TopKExcluded breaks
// ties by score first — a strictly smaller score never displaces a
// larger one, whatever the key order). The comparison is strict: a
// candidate whose bound equals the threshold is still scored, because
// an exact tie is resolved by insight key and could go either way.
// Both filters and the top-k selection are order-independent (the
// selection is a total order on (score desc, key asc)), so removing
// candidates that cannot survive them leaves the returned insights —
// scores, attrs, ordering — unchanged. Only the Margin/bestExcluded
// telemetry can differ (the best excluded candidate may now be
// unscored), which is documented as conservative.

// SetPruning toggles the bound-based top-k pruning path (the -prune
// flag). Pruning starts enabled; results are identical either way —
// off is the escape hatch and the baseline for equivalence gates.
func (e *Engine) SetPruning(on bool) { e.pruningOff.Store(!on) }

// PruningEnabled reports whether the pruned scoring path is active.
func (e *Engine) PruningEnabled() bool { return !e.pruningOff.Load() }

// PruneStats is a point-in-time snapshot of the engine's pruning
// counters, exposed via /api/stats and the Prometheus views.
type PruneStats struct {
	// Considered counts candidates that entered the pruned scoring
	// path (bounds were computed for them).
	Considered uint64 `json:"considered"`
	// Pruned counts candidates skipped outright — never scored —
	// because their bound fell below the top-k/MinScore threshold.
	Pruned uint64 `json:"pruned"`
	// Seeded counts memoized scores that pre-seeded the top-k
	// threshold before any scoring ran (higher = earlier cutoffs).
	Seeded uint64 `json:"seeded"`
	// Enabled reports whether the pruned path is active.
	Enabled bool `json:"enabled"`
}

// PruneStats returns a snapshot of the pruning counters.
func (e *Engine) PruneStats() PruneStats {
	return PruneStats{
		Considered: e.pruneConsidered.Load(),
		Pruned:     e.prunedTotal.Load(),
		Seeded:     e.pruneSeeded.Load(),
		Enabled:    e.PruningEnabled(),
	}
}

// kthTracker maintains the k best filtered scores seen so far as a
// min-heap, so the running top-k threshold (the kth best) is O(1) to
// read and O(log k) to raise. k ≤ 0 tracks nothing (threshold stays
// MinScore).
type kthTracker struct {
	k int
	h []float64
}

func (t *kthTracker) add(s float64) {
	if t.k <= 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, s)
		for i := len(t.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if t.h[parent] <= t.h[i] {
				break
			}
			t.h[parent], t.h[i] = t.h[i], t.h[parent]
			i = parent
		}
		return
	}
	if s <= t.h[0] {
		return
	}
	t.h[0] = s
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < len(t.h) && t.h[l] < t.h[small] {
			small = l
		}
		if r < len(t.h) && t.h[r] < t.h[small] {
			small = r
		}
		if small == i {
			break
		}
		t.h[small], t.h[i] = t.h[i], t.h[small]
		i = small
	}
}

// threshold returns the current pruning cutoff: the kth-best filtered
// score once k of them exist, floored by minScore. Monotonically
// non-decreasing over a scoring pass.
func (t *kthTracker) threshold(minScore float64) float64 {
	if t.k > 0 && len(t.h) == t.k && t.h[0] > minScore {
		return t.h[0]
	}
	return minScore
}

// scoreCandidatesPruned scores one class's candidates, skipping those
// provably outside the result. It returns the scored slots in
// candidate order — pruned candidates are absent entirely, so they
// can never leak into filtering, ranking, or the memo — plus the
// number of candidates pruned. When pruning cannot apply (disabled,
// class has no Bounder, no profile in the snapshot, or the query has
// neither a K nor a MinScore to prune against) it falls through to
// the plain scoring path with zero pruned.
func (e *Engine) scoreCandidatesPruned(ctx context.Context, snap snapshot, c core.Class, cands [][]string, q Query, metric string, maxScore float64) ([]core.Insight, int, error) {
	_, isBounder := c.(core.Bounder)
	if !isBounder || e.pruningOff.Load() || snap.profile == nil ||
		(q.K <= 0 && q.MinScore <= 0) || len(cands) == 0 {
		scored, err := e.scoreCandidates(ctx, snap, c, cands, q.Approx, metric)
		return scored, 0, err
	}
	e.pruneConsidered.Add(uint64(len(cands)))

	// keeps reports whether a score would survive the strength filter
	// in scoreClass; only surviving scores may raise the threshold.
	keeps := func(s float64) bool {
		return !math.IsNaN(s) && s >= q.MinScore && s <= maxScore
	}

	// Phase A: bound every candidate and peek the memo. Memoized
	// scores are free, so they land in the output immediately and —
	// when they survive the filter — seed the threshold, letting the
	// cutoff fire before any scoring happens on a warm engine.
	bounds := make([]float64, len(cands))
	for i, attrs := range cands {
		bounds[i] = core.ScoreBoundFor(c, snap.profile, attrs, metric)
	}
	out := make([]core.Insight, len(cands))
	have := make([]bool, len(cands))
	tracker := kthTracker{k: q.K}
	var seeded uint64
	hits := e.cache.lookupAll(snap.gen, c.Name(), metric, q.Approx, cands)
	for i, in := range hits {
		if in == nil {
			continue
		}
		out[i], have[i] = *in, true
		if keeps(in.Score) {
			tracker.add(in.Score)
			seeded++
		}
	}
	e.pruneSeeded.Add(seeded)

	// Phase B: score the remaining candidates in descending-bound
	// order (index-ascending on ties, so the pass is deterministic),
	// in chunks sized for the worker pool, re-reading the threshold
	// between chunks. Bounds are sorted descending and the threshold
	// only rises, so the first bound below it ends the whole pass. A
	// chunk holds 2×workers class batches (core.BatchEnds), never a
	// split one: counting candidates instead would cut segmentation's
	// batches apart and leave too few for the pool to run in parallel.
	order := make([]int, 0, len(cands))
	for i := range cands {
		if !have[i] {
			order = append(order, i)
		}
	}
	sortByBoundDesc(order, bounds)
	chunk := 2 * e.Workers()
	if chunk < 1 {
		chunk = 1
	}
	pos := 0
	for pos < len(order) {
		t := tracker.threshold(q.MinScore)
		if bounds[order[pos]] < t {
			break
		}
		end, batches := pos+1, 1
		for end < len(order) && bounds[order[end]] >= t {
			if !core.SameBatch(c, cands[order[end-1]], cands[order[end]]) {
				if batches == chunk {
					break
				}
				batches++
			}
			end++
		}
		chunkCands := make([][]string, 0, end-pos)
		for _, i := range order[pos:end] {
			chunkCands = append(chunkCands, cands[i])
		}
		scored, err := e.scoreCandidates(ctx, snap, c, chunkCands, q.Approx, metric)
		if err != nil {
			return nil, 0, err
		}
		for j, in := range scored {
			i := order[pos+j]
			out[i], have[i] = in, true
			if keeps(in.Score) {
				tracker.add(in.Score)
			}
		}
		pos = end
	}
	pruned := len(order) - pos
	e.prunedTotal.Add(uint64(pruned))

	final := make([]core.Insight, 0, len(cands)-pruned)
	for i := range cands {
		if have[i] {
			final = append(final, out[i])
		}
	}
	return final, pruned, nil
}

// sortByBoundDesc sorts candidate indices by descending bound,
// breaking ties by ascending index so the scoring pass is
// deterministic. NaN never occurs (ScoreBoundFor normalizes it to
// +Inf).
func sortByBoundDesc(order []int, bounds []float64) {
	sort.Slice(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if bounds[a] != bounds[b] {
			return bounds[a] > bounds[b]
		}
		return a < b
	})
}
