package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"foresight/internal/stats"
)

// TestMergeReservoirsUniform guards the prefix-bias fix: an
// underfilled reservoir's item array is in stream order, so a merge
// that consumed side prefixes would over-represent early-stream items.
// Values encode stream position; after merging, the taken items from
// each side must cover that side's stream positions uniformly.
func TestMergeReservoirsUniform(t *testing.T) {
	a := NewReservoir(1024, 1)
	b := NewReservoir(1024, 2)
	for i := 0; i < 1000; i++ {
		a.Update(float64(i))        // side A: positions 0..999
		b.Update(float64(1000 + i)) // side B: positions 1000..1999
	}
	m := mergeReservoirs(a, b, 7)
	if m.Count() != 2000 {
		t.Fatalf("merged count = %d, want 2000", m.Count())
	}
	if len(m.Sample()) != 1024 {
		t.Fatalf("merged sample len = %d, want capacity 1024", len(m.Sample()))
	}
	fromA, lateA, lateB := 0, 0, 0
	for _, v := range m.Sample() {
		if v < 1000 {
			fromA++
			if v >= 500 {
				lateA++
			}
		} else if v >= 1500 {
			lateB++
		}
	}
	fromB := len(m.Sample()) - fromA
	// Side balance: each side contributed half the stream.
	if fromA < 410 || fromA > 614 {
		t.Errorf("side A contributed %d/1024, want ≈512", fromA)
	}
	// Within-side uniformity: the second half of each stream must hold
	// ≈half of that side's taken items. The prefix-bias bug put all of
	// a side's taken items in its stream prefix.
	if frac := float64(lateA) / float64(fromA); frac < 0.35 || frac > 0.65 {
		t.Errorf("late-stream share of side A = %.2f (%d/%d), want ≈0.5", frac, lateA, fromA)
	}
	if frac := float64(lateB) / float64(fromB); frac < 0.35 || frac > 0.65 {
		t.Errorf("late-stream share of side B = %.2f (%d/%d), want ≈0.5", frac, lateB, fromB)
	}
}

// TestSpaceSavingMergeBounds asserts the conservative-merge contract
// on every tracked item — true ≤ est ≤ true + err stays intact after
// Merge — and that no untracked item's true count can exceed the
// merged floor.
func TestSpaceSavingMergeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := map[string]uint64{}
	update := func(s *SpaceSaving, item string) {
		s.Update(item)
		truth[item]++
	}
	a := NewSpaceSaving(8)
	b := NewSpaceSaving(8)
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n"}
	for i := 0; i < 6000; i++ {
		// Skewed ranks with split tails: low ranks land on both sides,
		// high ranks on one, so the merge exercises both-sides, s-only,
		// and other-only counters plus capacity truncation.
		idx := int(float64(len(items)) * math.Pow(rng.Float64(), 3))
		if idx >= len(items) {
			idx = len(items) - 1
		}
		switch {
		case idx < 6:
			if i%2 == 0 {
				update(a, items[idx])
			} else {
				update(b, items[idx])
			}
		case idx%2 == 0:
			update(a, items[idx])
		default:
			update(b, items[idx])
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	var minTracked uint64 = math.MaxUint64
	tracked := map[string]bool{}
	for _, h := range a.Top(0) {
		tracked[h.Item] = true
		if h.Count < minTracked {
			minTracked = h.Count
		}
		tr := truth[h.Item]
		if h.Count < tr {
			t.Errorf("%s: estimate %d below true count %d", h.Item, h.Count, tr)
		}
		if h.Count-h.Err > tr {
			t.Errorf("%s: lower bound %d (est %d − err %d) above true count %d",
				h.Item, h.Count-h.Err, h.Count, h.Err, tr)
		}
	}
	if a.TrackedItems() == 8 { // at capacity: the untracked invariant applies
		for item, tr := range truth {
			if !tracked[item] && tr > minTracked {
				t.Errorf("untracked %s has true count %d above floor %d", item, tr, minTracked)
			}
		}
	}
	var total uint64
	for _, c := range truth {
		total += c
	}
	if a.Count() != total {
		t.Errorf("merged stream count %d, want %d", a.Count(), total)
	}
}

// TestKLLMergeChain guards the compress-loop fix: merging many small
// sketches must leave each intermediate result under its size budget
// (the old loop could exit with size ≥ maxSize when no single level
// was over its own capacity) while keeping rank error bounded.
func TestKLLMergeChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var all []float64
	acc := NewKLL(8, 1)
	for chunk := 0; chunk < 200; chunk++ {
		s := NewKLL(8, int64(chunk)+2)
		for i := 0; i < 50; i++ {
			v := rng.NormFloat64()
			s.Update(v)
			all = append(all, v)
		}
		if err := acc.Merge(s); err != nil {
			t.Fatal(err)
		}
		if acc.StoredItems() >= acc.maxSize {
			t.Fatalf("after merge %d: size %d ≥ budget %d", chunk, acc.StoredItems(), acc.maxSize)
		}
	}
	if acc.Count() != uint64(len(all)) {
		t.Fatalf("count %d, want %d", acc.Count(), len(all))
	}
	sort.Float64s(all)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got := acc.Quantile(q)
		// Compare by rank: the estimated quantile's position in the
		// sorted union must be near q·n.
		pos := sort.SearchFloat64s(all, got)
		if d := math.Abs(float64(pos)/float64(len(all)) - q); d > 0.08 {
			t.Errorf("q%.2f: estimate at rank %.3f (off by %.3f)", q, float64(pos)/float64(len(all)), d)
		}
	}
}

// TestProfileExtendMatchesScratch is the delta path's equivalence
// check: profile a prefix, Extend to the full frame, and the result
// must answer like a from-scratch profile within the same tolerances
// the sharded builder is held to.
func TestProfileExtendMatchesScratch(t *testing.T) {
	f := testFrame(12000, 41)
	keep := make([]bool, f.Rows())
	for i := 0; i < 8000; i++ {
		keep[i] = true
	}
	base, err := f.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProfileConfig{Seed: 6, K: 256}
	p := BuildProfile(base, cfg)
	baseRows := p.Rows
	ext, err := p.Extend(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != baseRows {
		t.Fatalf("Extend mutated the receiver: rows %d → %d", baseRows, p.Rows)
	}
	single := BuildProfile(f, cfg)

	if ext.Rows != single.Rows {
		t.Fatalf("rows = %d, want %d", ext.Rows, single.Rows)
	}
	for name, snp := range single.Numeric {
		enp := ext.Numeric[name]
		if enp == nil {
			t.Fatalf("numeric %q missing", name)
		}
		if math.Abs(enp.Moments.Mean-snp.Moments.Mean) > 1e-9*math.Max(1, math.Abs(snp.Moments.Mean)) {
			t.Errorf("%s: mean %v vs %v", name, enp.Moments.Mean, snp.Moments.Mean)
		}
		if enp.Moments.Count() != snp.Moments.Count() {
			t.Errorf("%s: count %d vs %d", name, enp.Moments.Count(), snp.Moments.Count())
		}
		relTol := 1e-6 * math.Max(1, math.Abs(snp.Moments.Variance()))
		if math.Abs(enp.Moments.Variance()-snp.Moments.Variance()) > relTol {
			t.Errorf("%s: variance %v vs %v", name, enp.Moments.Variance(), snp.Moments.Variance())
		}
		for _, q := range []float64{0.25, 0.5, 0.75} {
			exact := stats.Quantile(fColumn(t, f, name), q)
			got := enp.Quantiles.Quantile(q)
			spread := snp.Moments.StdDev()
			if spread > 0 && math.Abs(got-exact) > 0.25*spread {
				t.Errorf("%s: extended q%v = %v, exact %v", name, q, got, exact)
			}
		}
		if len(enp.RowSampleValues) != len(snp.RowSampleValues) {
			t.Errorf("%s: row-sample gather %d vs %d", name, len(enp.RowSampleValues), len(snp.RowSampleValues))
		}
	}
	// Correlation estimates: the extended profile's projections are
	// centered on base means, the scratch profile's on full means —
	// the estimates must still agree closely.
	for _, pair := range [][2]string{{"x", "y"}, {"x", "z"}} {
		a, errA := single.EstimatePearson(pair[0], pair[1])
		b, errB := ext.EstimatePearson(pair[0], pair[1])
		if errA != nil || errB != nil {
			t.Fatalf("pearson(%v): %v / %v", pair, errA, errB)
		}
		if math.Abs(a-b) > 0.05 {
			t.Errorf("pearson(%v): extended %v vs scratch %v", pair, b, a)
		}
	}
	// Categorical state refreshed from the full frame.
	scp, ecp := single.Categorical["cat"], ext.Categorical["cat"]
	if ecp == nil {
		t.Fatal("categorical profile missing after Extend")
	}
	if ecp.Rows != scp.Rows {
		t.Errorf("cat rows: %d vs %d", ecp.Rows, scp.Rows)
	}
	if math.Abs(ecp.Heavy.RelFreqTopK(3)-scp.Heavy.RelFreqTopK(3)) > 0.02 {
		t.Errorf("cat relfreq: %v vs %v", ecp.Heavy.RelFreqTopK(3), scp.Heavy.RelFreqTopK(3))
	}
	if rel := math.Abs(ecp.Distinct.Distinct()-scp.Distinct.Distinct()) / math.Max(scp.Distinct.Distinct(), 1); rel > 0.05 {
		t.Errorf("cat distinct: %v vs %v", ecp.Distinct.Distinct(), scp.Distinct.Distinct())
	}
	if ecp.Cardinality != scp.Cardinality {
		t.Errorf("cat cardinality: %d vs %d", ecp.Cardinality, scp.Cardinality)
	}
	if len(ecp.Dict) != len(scp.Dict) {
		t.Errorf("cat dict: %d vs %d entries", len(ecp.Dict), len(scp.Dict))
	}
	if ext.RowSample.Len() != single.RowSample.Len() {
		t.Errorf("row sample len %d vs %d", ext.RowSample.Len(), single.RowSample.Len())
	}
}

func TestProfileExtendErrors(t *testing.T) {
	f := testFrame(1000, 44)
	keep := make([]bool, f.Rows())
	for i := 0; i < 800; i++ {
		keep[i] = true
	}
	base, err := f.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	p := BuildProfile(f, ProfileConfig{Seed: 1, K: 32})
	// Fewer rows than profiled.
	if _, err := p.Extend(base, 0); err == nil {
		t.Error("extending onto a smaller frame should fail")
	}
	// Column set mismatch.
	sub, err := f.Select("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Extend(sub, 0); err == nil {
		t.Error("extending onto a narrower frame should fail")
	}
	// Same row count returns a working clone.
	p2 := BuildProfile(base, ProfileConfig{Seed: 1, K: 32})
	same, err := p2.Extend(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if same == p2 || same.Rows != p2.Rows {
		t.Errorf("same-rows Extend should clone: %v rows vs %v", same.Rows, p2.Rows)
	}
}
