package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// The profile merge: §3's sketches are all mergeable, so partial
// profiles of disjoint row ranges (shards of a build, the appended
// rows of an Extend) combine into the profile of their union.

// Merge folds another profile built over a *disjoint row partition of
// the same dataset with the same configuration* into p. Sketches
// merge pairwise; the shared row sample and per-column row-sample
// gathers are NOT merged (they index global rows) and must be rebuilt
// by the caller — BuildProfileSharded and Extend do so.
func (p *DatasetProfile) Merge(other *DatasetProfile) error {
	if other == nil {
		return nil
	}
	defer observeSince("merge", time.Now())
	if p.Config.K != other.Config.K || p.Config.Seed != other.Config.Seed {
		return ErrShapeMismatch
	}
	for name, onp := range other.Numeric {
		np, ok := p.Numeric[name]
		if !ok {
			return fmt.Errorf("sketch: merge: numeric column %q missing", name)
		}
		// Projections only merge when both sides centered the column by
		// the same mean; partials built from drifting means would sum
		// incompatible dot vectors silently.
		if np.ProjCenter != onp.ProjCenter &&
			!(math.IsNaN(np.ProjCenter) && math.IsNaN(onp.ProjCenter)) {
			return fmt.Errorf("sketch: merge: column %q centered at %v vs %v: %w",
				name, np.ProjCenter, onp.ProjCenter, ErrShapeMismatch)
		}
		np.Moments.Merge(onp.Moments)
		if err := np.Quantiles.Merge(onp.Quantiles); err != nil {
			return err
		}
		if err := np.Proj.Merge(onp.Proj); err != nil {
			return err
		}
		if np.RankProj != nil && onp.RankProj != nil {
			if err := np.RankProj.Merge(onp.RankProj); err != nil {
				return err
			}
		}
		// Reservoirs of disjoint partitions merge by weighted
		// subsampling: keep each side's items with probability
		// proportional to its stream share.
		np.Sample = mergeReservoirs(np.Sample, onp.Sample, p.Config.Seed)
		// Derived bit vectors are rebuilt from the merged dots.
		np.Planes = HyperplaneFromProjection(np.Proj)
		if np.RankProj != nil {
			np.RankPlanes = HyperplaneFromProjection(np.RankProj)
		}
	}
	for name, ocp := range other.Categorical {
		cp, ok := p.Categorical[name]
		if !ok {
			return fmt.Errorf("sketch: merge: categorical column %q missing", name)
		}
		if err := cp.Heavy.Merge(ocp.Heavy); err != nil {
			return err
		}
		if err := cp.Distinct.Merge(ocp.Distinct); err != nil {
			return err
		}
		cp.Rows += ocp.Rows
		if ocp.Cardinality > cp.Cardinality {
			cp.Cardinality = ocp.Cardinality
		}
	}
	p.Rows += other.Rows
	return nil
}

// mergeReservoirs combines two uniform samples over disjoint streams
// into one approximately uniform sample of the union. Each draw picks
// a side with probability proportional to that side's *remaining*
// stream mass (so the side split tracks the hypergeometric
// allocation), then takes a uniform not-yet-taken item from that
// side's sample. The side samples are shuffled first: a reservoir's
// item array is not in random order (an underfilled reservoir is in
// stream order, and algorithm R overwrites in place), so consuming
// prefixes would over-represent early-stream items.
func mergeReservoirs(a, b *Reservoir, seed int64) *Reservoir {
	if b == nil || b.Count() == 0 {
		return a
	}
	if a == nil || a.Count() == 0 {
		return b
	}
	total := a.Count() + b.Count()
	out := NewReservoir(a.capacity, seed+int64(total))
	rng := rand.New(rand.NewSource(seed + int64(total) + 1))
	as := append([]float64(nil), a.Sample()...)
	bs := append([]float64(nil), b.Sample()...)
	rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
	rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	// Each sample item stands in for count/len(sample) stream items;
	// decrement the side's remaining mass by that step per draw.
	wa, wb := float64(a.Count()), float64(b.Count())
	stepA, stepB := wa/float64(len(as)), wb/float64(len(bs))
	ai, bi := 0, 0
	for len(out.items) < out.capacity && (ai < len(as) || bi < len(bs)) {
		pickA := bi >= len(bs) ||
			(ai < len(as) && rng.Float64()*(wa+wb) < wa)
		if pickA {
			out.items = append(out.items, as[ai])
			ai++
			wa -= stepA
		} else {
			out.items = append(out.items, bs[bi])
			bi++
			wb -= stepB
		}
		if wa < 0 {
			wa = 0
		}
		if wb < 0 {
			wb = 0
		}
	}
	out.n = total
	return out
}
