package sketch

import (
	"bytes"
	"math"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/stats"
)

func saveBytes(t *testing.T, p *DatasetProfile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShardBounds(t *testing.T) {
	cases := []struct {
		lo, hi, shards, block int
	}{
		{0, 100000, 4, 4096},
		{0, 4096, 8, 4096},
		{8192, 30000, 3, 4096},
		{5, 5000, 2, 4096},
		{0, 1, 16, 4096},
		{7, 7, 4, 4096},
	}
	for _, c := range cases {
		bounds := shardBounds(c.lo, c.hi, c.shards, c.block)
		if c.hi <= c.lo {
			if len(bounds) != 0 {
				t.Errorf("(%+v): empty range produced %v", c, bounds)
			}
			continue
		}
		if len(bounds) == 0 || len(bounds) > c.shards {
			t.Fatalf("(%+v): %d ranges", c, len(bounds))
		}
		// Ranges tile [lo, hi) exactly, in order.
		if bounds[0][0] != c.lo || bounds[len(bounds)-1][1] != c.hi {
			t.Errorf("(%+v): ranges %v do not cover [%d, %d)", c, bounds, c.lo, c.hi)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i][0] != bounds[i-1][1] {
				t.Errorf("(%+v): gap between %v and %v", c, bounds[i-1], bounds[i])
			}
			// Interior boundaries are block-aligned so no direction block
			// straddles two shards.
			if bounds[i][0]%c.block != 0 {
				t.Errorf("(%+v): interior boundary %d not block-aligned", c, bounds[i][0])
			}
		}
	}
}

func TestShardedProfileMatchesSinglePass(t *testing.T) {
	f := testFrame(30000, 47)
	cfg := ProfileConfig{Seed: 6, K: 256, Spearman: true}
	single := BuildProfile(f, cfg)
	sharded := BuildProfileSharded(f, cfg, 4)

	if sharded.Rows != single.Rows {
		t.Fatalf("rows = %d, want %d", sharded.Rows, single.Rows)
	}
	for name, snp := range single.Numeric {
		pnp := sharded.Numeric[name]
		if pnp == nil {
			t.Fatalf("numeric %q missing", name)
		}
		// Exact statistics match up to fp associativity.
		if math.Abs(pnp.Moments.Mean-snp.Moments.Mean) > 1e-9*math.Max(1, math.Abs(snp.Moments.Mean)) {
			t.Errorf("%s: mean %v vs %v", name, pnp.Moments.Mean, snp.Moments.Mean)
		}
		if pnp.Moments.Count() != snp.Moments.Count() {
			t.Errorf("%s: count %d vs %d", name, pnp.Moments.Count(), snp.Moments.Count())
		}
		relTol := 1e-6 * math.Max(1, math.Abs(snp.Moments.Variance()))
		if math.Abs(pnp.Moments.Variance()-snp.Moments.Variance()) > relTol {
			t.Errorf("%s: variance %v vs %v", name, pnp.Moments.Variance(), snp.Moments.Variance())
		}
		// Shards consume the same direction stream, so dots agree to fp
		// noise — plain and rank projections both.
		for i := range snp.Proj.Dots {
			d := math.Abs(pnp.Proj.Dots[i] - snp.Proj.Dots[i])
			if d > 1e-6*math.Max(1, math.Abs(snp.Proj.Dots[i])) {
				t.Fatalf("%s: dot %d differs: %v vs %v", name, i, pnp.Proj.Dots[i], snp.Proj.Dots[i])
			}
		}
		if pnp.RankProj == nil {
			t.Fatalf("%s: rank projections missing", name)
		}
		for i := range snp.RankProj.Dots {
			d := math.Abs(pnp.RankProj.Dots[i] - snp.RankProj.Dots[i])
			if d > 1e-6*math.Max(1, math.Abs(snp.RankProj.Dots[i])) {
				t.Fatalf("%s: rank dot %d differs: %v vs %v", name, i, pnp.RankProj.Dots[i], snp.RankProj.Dots[i])
			}
		}
		// Merged KLL stays within its error bounds.
		for _, q := range []float64{0.25, 0.5, 0.75} {
			exact := stats.Quantile(fColumn(t, f, name), q)
			got := pnp.Quantiles.Quantile(q)
			spread := snp.Moments.StdDev()
			if spread > 0 && math.Abs(got-exact) > 0.25*spread {
				t.Errorf("%s: sharded q%v = %v, exact %v", name, q, got, exact)
			}
		}
	}
	for _, pair := range [][2]string{{"x", "y"}, {"x", "z"}} {
		a, _ := single.EstimatePearson(pair[0], pair[1])
		b, _ := sharded.EstimatePearson(pair[0], pair[1])
		if math.Abs(a-b) > 0.05 {
			t.Errorf("pearson(%v): sharded %v vs single %v", pair, b, a)
		}
		as, _ := single.EstimateSpearman(pair[0], pair[1])
		bs, _ := sharded.EstimateSpearman(pair[0], pair[1])
		if math.Abs(as-bs) > 0.05 {
			t.Errorf("spearman(%v): sharded %v vs single %v", pair, bs, as)
		}
	}

	// Categorical: exact fields match; merged heavy hitters keep the
	// SpaceSaving bound true ∈ [Count−Err, Count] against exact counts.
	sc := single.Categorical["cat"]
	pc := sharded.Categorical["cat"]
	if pc.Rows != sc.Rows {
		t.Errorf("cat rows: %d vs %d", pc.Rows, sc.Rows)
	}
	if pc.Cardinality != sc.Cardinality {
		t.Errorf("cat cardinality: %d vs %d", pc.Cardinality, sc.Cardinality)
	}
	cc, err := f.Categorical("cat")
	if err != nil {
		t.Fatal(err)
	}
	exact := map[string]uint64{}
	dict := cc.Dict()
	for _, code := range cc.Codes() {
		if code >= 0 {
			exact[dict[code]]++
		}
	}
	if math.Abs(pc.Heavy.RelFreqTopK(3)-sc.Heavy.RelFreqTopK(3)) > 0.02 {
		t.Errorf("cat relfreq: %v vs %v", pc.Heavy.RelFreqTopK(3), sc.Heavy.RelFreqTopK(3))
	}
	for _, hh := range pc.Heavy.Top(5) {
		truth := exact[hh.Item]
		if hh.Count < truth {
			t.Errorf("heavy %q: estimate %d below true count %d", hh.Item, hh.Count, truth)
		}
		if hh.Count-hh.Err > truth {
			t.Errorf("heavy %q: lower bound %d above true count %d", hh.Item, hh.Count-hh.Err, truth)
		}
	}
	if rel := math.Abs(pc.Distinct.Distinct()-sc.Distinct.Distinct()) / math.Max(sc.Distinct.Distinct(), 1); rel > 0.05 {
		t.Errorf("cat distinct: %v vs %v", pc.Distinct.Distinct(), sc.Distinct.Distinct())
	}
	if sharded.RowSample.Len() != single.RowSample.Len() {
		t.Errorf("row sample len %d vs %d", sharded.RowSample.Len(), single.RowSample.Len())
	}
}

// Two sharded builds with the same inputs must be byte-identical:
// partial construction order, shard seeds and reduction order are all
// fixed, so concurrency cannot leak into the result.
func TestShardedBuildDeterministic(t *testing.T) {
	f := testFrame(25000, 48)
	cfg := ProfileConfig{Seed: 9, K: 128, Spearman: true}
	a := saveBytes(t, BuildProfileSharded(f, cfg, 4))
	for i := 0; i < 3; i++ {
		b := saveBytes(t, BuildProfileSharded(f, cfg, 4))
		if !bytes.Equal(a, b) {
			t.Fatalf("sharded build %d differs from first", i+2)
		}
	}
}

// shards = 0 and 1 are the sequential builder — bit-identical output,
// so flipping -build-shards off reproduces today's profiles.
func TestShardedZeroIsSequential(t *testing.T) {
	f := testFrame(9000, 49)
	cfg := ProfileConfig{Seed: 3, K: 64, Spearman: true}
	want := saveBytes(t, BuildProfile(f, cfg))
	for _, shards := range []int{0, 1} {
		got := saveBytes(t, BuildProfileSharded(f, cfg, shards))
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d not bit-identical to sequential build", shards)
		}
	}
}

// Frames of at most one direction block never split, so every shard
// count builds exactly the one-shard profile.
func TestShardedSmallFramesMatchSequential(t *testing.T) {
	for _, f := range []*frame.Frame{datagen.Parkinson(0, 42), datagen.OECD(0, 42)} {
		cfg := ProfileConfig{Seed: 42, Spearman: true}
		want := saveBytes(t, BuildProfile(f, cfg))
		for _, shards := range []int{2, 4, -1} {
			if got := saveBytes(t, BuildProfileSharded(f, cfg, shards)); !bytes.Equal(got, want) {
				t.Errorf("%s: shards=%d not bit-identical to sequential build", f.Name(), shards)
			}
		}
	}
}

func TestShardedEdgeCases(t *testing.T) {
	// More shards than direction blocks: collapses to one shard.
	small := testFrame(100, 50)
	p := BuildProfileSharded(small, ProfileConfig{Seed: 1, K: 32}, 16)
	if p.Rows != 100 {
		t.Errorf("rows = %d", p.Rows)
	}
	if got := p.Numeric["x"].Moments.Count(); got != 100 {
		t.Errorf("count = %d", got)
	}
	// More shards than rows, negative (= GOMAXPROCS) and 0 (sequential).
	for _, shards := range []int{1000, -1, 0} {
		p2 := BuildProfileSharded(small, ProfileConfig{Seed: 1, K: 32}, shards)
		if p2.Rows != 100 {
			t.Errorf("shards=%d: rows = %d", shards, p2.Rows)
		}
	}
	// Multi-block frame with shards ≫ blocks still tiles correctly.
	mid := testFrame(10000, 51)
	p3 := BuildProfileSharded(mid, ProfileConfig{Seed: 1, K: 32}, 64)
	if got := p3.Numeric["x"].Moments.Count(); got != 10000 {
		t.Errorf("count = %d", got)
	}
}

func TestExtendShardedMatchesExtend(t *testing.T) {
	f := testFrame(30000, 52)
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

	seq, err := p.Extend(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := p.Extend(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Rows != seq.Rows {
		t.Fatalf("rows = %d, want %d", sh.Rows, seq.Rows)
	}
	for name, snp := range seq.Numeric {
		pnp := sh.Numeric[name]
		if pnp.Moments.Count() != snp.Moments.Count() {
			t.Errorf("%s: count %d vs %d", name, pnp.Moments.Count(), snp.Moments.Count())
		}
		if math.Abs(pnp.Moments.Mean-snp.Moments.Mean) > 1e-9*math.Max(1, math.Abs(snp.Moments.Mean)) {
			t.Errorf("%s: mean %v vs %v", name, pnp.Moments.Mean, snp.Moments.Mean)
		}
		// Both deltas consume the same direction stream over the appended
		// rows, so the extended dots agree to fp noise.
		for i := range snp.Proj.Dots {
			d := math.Abs(pnp.Proj.Dots[i] - snp.Proj.Dots[i])
			if d > 1e-6*math.Max(1, math.Abs(snp.Proj.Dots[i])) {
				t.Fatalf("%s: dot %d differs: %v vs %v", name, i, pnp.Proj.Dots[i], snp.Proj.Dots[i])
			}
		}
	}
	// shards = 0 and 1 are the same sequential delta.
	sh1, err := p.Extend(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, sh1), saveBytes(t, seq)) {
		t.Fatal("Extend(f, 1) not bit-identical to Extend(f, 0)")
	}
}
