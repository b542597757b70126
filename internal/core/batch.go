package core

import (
	"math"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// BatchScorer is an optional Class extension for classes whose
// candidates share scoring work. The engine's scoring pool and
// ScoreAll hand such a class whole batches: runs of consecutive
// candidates that SameBatch joins. Segmentation is the built-in user:
// every categorical z of one (x, y) pair shares the scatter and its
// pairwise distances.
//
// ScoreBatch scores every tuple of batch exactly from f (approx false)
// or from the sketch store p (approx true). Entry i must be exactly
// what Score or ScoreApprox returns for batch[i] alone, bit for bit,
// including the error. Callers only pass batches whose consecutive
// tuples SameBatch joins.
type BatchScorer interface {
	SameBatch(a, b []string) bool
	ScoreBatch(f *frame.Frame, p *sketch.DatasetProfile, batch [][]string, metric string, approx bool) ([]Insight, []error)
}

// SameBatch reports whether candidate b may join the batch that
// candidate a (the candidate before it) belongs to. It is false for
// classes that do not implement BatchScorer.
func SameBatch(c Class, a, b []string) bool {
	bs, ok := c.(BatchScorer)
	return ok && bs.SameBatch(a, b)
}

// BatchEnds splits cands into the runs that c scores as one batch and
// returns each run's end offset: batch i is cands[ends[i-1]:ends[i]],
// with ends[-1] taken as 0. A class without BatchScorer gets one
// candidate per batch.
func BatchEnds(c Class, cands [][]string) []int {
	ends := make([]int, 0, len(cands))
	for i := 1; i <= len(cands); i++ {
		if i == len(cands) || !SameBatch(c, cands[i-1], cands[i]) {
			ends = append(ends, i)
		}
	}
	return ends
}

// ScoreBatch scores one batch (see BatchEnds) exactly or from the
// sketch store: through BatchScorer when c implements it, else one
// candidate at a time.
func ScoreBatch(c Class, f *frame.Frame, p *sketch.DatasetProfile, batch [][]string, metric string, approx bool) ([]Insight, []error) {
	if bs, ok := c.(BatchScorer); ok {
		return bs.ScoreBatch(f, p, batch, metric, approx)
	}
	ins := make([]Insight, len(batch))
	errs := make([]error, len(batch))
	for i, attrs := range batch {
		if approx {
			ins[i], errs[i] = c.ScoreApprox(p, attrs, metric)
		} else {
			ins[i], errs[i] = c.Score(f, attrs, metric)
		}
	}
	return ins, errs
}

// scoreAll scores every candidate of c batch by batch, dropping
// errors and NaN scores, and sorts the result.
func scoreAll(c Class, f *frame.Frame, p *sketch.DatasetProfile, metric string, approx bool) []Insight {
	cands := c.Candidates(f)
	var out []Insight
	start := 0
	for _, end := range BatchEnds(c, cands) {
		ins, errs := ScoreBatch(c, f, p, cands[start:end], metric, approx)
		for i, in := range ins {
			if errs[i] == nil && !math.IsNaN(in.Score) {
				out = append(out, in)
			}
		}
		start = end
	}
	SortInsights(out)
	return out
}
