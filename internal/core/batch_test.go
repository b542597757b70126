package core

import (
	"math"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// withMissing copies f with every 7th cell of its first three numeric
// columns NaN and every 9th code of each categorical missing.
func withMissing(f *frame.Frame) *frame.Frame {
	var cols []frame.Column
	numeric, categorical := 0, 0
	for ci := 0; ci < f.Cols(); ci++ {
		switch c := f.Column(ci).(type) {
		case *frame.NumericColumn:
			vals := append([]float64(nil), c.Values()...)
			if numeric < 3 {
				for i := numeric; i < len(vals); i += 7 {
					vals[i] = math.NaN()
				}
			}
			numeric++
			cols = append(cols, frame.NewNumericColumn(c.Name(), vals))
		case *frame.CategoricalColumn:
			codes := append([]int32(nil), c.Codes()...)
			for i := categorical; i < len(codes); i += 9 {
				codes[i] = -1
			}
			categorical++
			cc, err := frame.NewCategoricalFromCodes(c.Name(), codes, c.Dict())
			if err != nil {
				panic(err)
			}
			cols = append(cols, cc)
		}
	}
	return frame.MustNew(f.Name(), cols...)
}

// segmentationReference is segmentation's scorer before batching:
// sample every ⌊n/sampleCap⌋-th row of the standardized scatter and
// score it with the map-based stats.Silhouette.
func segmentationReference(xs, ys []float64, codes []int32, sampleCap int) float64 {
	n := min(len(xs), len(ys), len(codes))
	step := 1
	if n > sampleCap {
		step = n / sampleCap
	}
	mx, sx := stats.Mean(xs), stats.StdDev(xs)
	my, sy := stats.Mean(ys), stats.StdDev(ys)
	if sx == 0 || math.IsNaN(sx) {
		sx = 1
	}
	if sy == 0 || math.IsNaN(sy) {
		sy = 1
	}
	var pts []stats.Point2
	var assign []int
	for i := 0; i < n; i += step {
		pts = append(pts, stats.Point2{X: (xs[i] - mx) / sx, Y: (ys[i] - my) / sy})
		assign = append(assign, int(codes[i]))
	}
	return stats.Silhouette(pts, assign)
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// Batched segmentation scores keep the bits of the pre-batching
// scorer, exactly and from the sketch store, with a sampling stride of
// 2 and missing cells in the scatter and the grouping.
func TestSegmentationBatchMatchesReference(t *testing.T) {
	f := withMissing(datagen.IMDB(1100, 7))
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 3, Spearman: true})
	c := NewSegmentationClass(0, 0)
	cands := c.Candidates(f)
	ends := BatchEnds(c, cands)
	if len(ends) < 5 || len(ends) == len(cands) {
		t.Fatalf("%d candidates in %d batches", len(cands), len(ends))
	}
	start := 0
	for b, end := range ends {
		batch := cands[start:end]
		start = end
		if b >= 4 && b != len(ends)-1 {
			continue
		}
		for _, approx := range []bool{false, true} {
			ins, errs := ScoreBatch(c, f, p, batch, "", approx)
			for i, attrs := range batch {
				var want float64
				if approx {
					px, _ := p.NumericProfileOf(attrs[0])
					py, _ := p.NumericProfileOf(attrs[1])
					pz, _ := p.CategoricalProfileOf(attrs[2])
					want = segmentationReference(px.RowSampleValues, py.RowSampleValues, pz.RowSampleCodes, 512)
				} else {
					x, _ := f.Numeric(attrs[0])
					y, _ := f.Numeric(attrs[1])
					z, _ := f.Categorical(attrs[2])
					want = segmentationReference(x.Values(), y.Values(), z.Codes(), 512)
				}
				if math.IsNaN(want) {
					if _, ok := errs[i].(*UndefinedError); !ok {
						t.Errorf("%v approx=%v: err = %v, want undefined", attrs, approx, errs[i])
					}
					continue
				}
				if errs[i] != nil || !sameBits(ins[i].Raw, want) || ins[i].Approx != approx {
					t.Errorf("%v approx=%v: raw %v err %v, want %v", attrs, approx, ins[i].Raw, errs[i], want)
				}
				var one Insight
				if approx {
					one, _ = c.ScoreApprox(p, attrs, "")
				} else {
					one, _ = c.Score(f, attrs, "")
				}
				if !sameBits(one.Score, ins[i].Score) || !sameBits(one.Raw, ins[i].Raw) || one.Details["groups"] != ins[i].Details["groups"] {
					t.Errorf("%v approx=%v: alone %+v, batched %+v", attrs, approx, one, ins[i])
				}
			}
		}
	}
}

// A segmentation batch reports per-candidate errors without failing
// its neighbours, and refuses to mix (x, y) pairs.
func TestSegmentationBatchErrors(t *testing.T) {
	f := datagen.IMDB(200, 7)
	c := NewSegmentationClass(0, 0)
	good := c.Candidates(f)[0]
	ins, errs := ScoreBatch(c, f, nil, [][]string{
		good,
		{good[0], good[1], "no-such-column"},
		{good[0], good[1]},
		{good[1], good[0], good[2]},
	}, "", false)
	if errs[0] != nil || ins[0].Class != "segmentation" {
		t.Errorf("good candidate: %+v, %v", ins[0], errs[0])
	}
	for i := 1; i < 4; i++ {
		if errs[i] == nil {
			t.Errorf("candidate %d: no error", i)
		}
	}
	if _, errs := ScoreBatch(c, f, nil, [][]string{good}, "bogus", false); errs[0] == nil {
		t.Error("unknown metric: no error")
	}
}

// Exact monotonic scoring through per-column ranks keeps
// stats.Spearman's bits, on clean columns and on columns with NaN.
func TestMonotonicColumnRanksMatchSpearman(t *testing.T) {
	f := withMissing(datagen.IMDB(1100, 7))
	c := NewMonotonicClass()
	for _, attrs := range c.Candidates(f) {
		in, err := c.Score(f, attrs, "spearman")
		if err != nil {
			t.Fatal(err)
		}
		x, _ := f.Numeric(attrs[0])
		y, _ := f.Numeric(attrs[1])
		if want := stats.Spearman(x.Values(), y.Values()); !sameBits(in.Raw, want) {
			t.Errorf("%v: raw %v, want %v", attrs, in.Raw, want)
		}
	}
}
