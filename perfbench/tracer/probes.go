package main

import (
	"math"
	"time"

	"foresight/internal/obs/telemetry"
	"foresight/internal/query"
	"foresight/internal/stats"
	"foresight/internal/viz"
	"foresight/perfbench/common"
)

// Kernel probe sizes: GroupSilhouette on the 512-point row sample the
// segmentation class scores, and Spearman on one 5,000-row pair.
const (
	silhouettePoints = 512
	spearmanRows     = 5000
	probeReps        = 11
	recordBatch      = 200
)

// probes times single calls into stats, viz and obs on the workload's
// table, each repeated and reported as a median.
func (t *traced) probes() {
	parent := t.phase
	nums, cats := t.f.NumericColumns(), t.f.CategoricalColumns()
	x, y := nums[0].Values(), nums[1].Values()
	var pts []stats.Point2
	var groups []int32
	var xs, ys []float64
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		xs, ys = append(xs, x[i]), append(ys, y[i])
		if len(cats) > 0 && cats[0].Codes()[i] >= 0 && len(pts) < silhouettePoints {
			pts = append(pts, stats.Point2{X: x[i], Y: y[i]})
			groups = append(groups, cats[0].Codes()[i])
		}
	}
	var sil, spr []float64
	tx, ty := make([]float64, spearmanRows), make([]float64, spearmanRows)
	for i := range tx {
		tx[i], ty[i] = xs[i%len(xs)], ys[i%len(ys)]
	}
	for r := 0; r < probeReps; r++ {
		sil = append(sil, 1000*t.rec.timed("stats.GroupSilhouette", parent, "", func() { stats.GroupSilhouette(pts, groups) }))
		spr = append(spr, 1000*t.rec.timed("stats.Spearman", parent, "", func() { stats.Spearman(tx, ty) }))
	}
	t.m["stats.silhouette_us"] = common.Median(sil)
	t.m["stats.spearman_us"] = common.Median(spr)

	res, err := query.NewSession(t.e, 5, t.approx).RecommendationsK(5)
	if err != nil {
		t.fail("carousels for the render probe: %v", err)
	}
	var renders []float64
	for _, r := range res {
		for _, in := range r.Insights {
			t.ops++
			var rerr error
			renders = append(renders, t.rec.timed("viz.RenderSVG", parent, "", func() { _, rerr = viz.RenderSVG(t.f, in) }))
			if rerr != nil {
				t.fail("RenderSVG %s: %v", in.Key(), rerr)
			}
		}
	}
	t.m["viz.render_ms"] = common.Median(renders)

	// One carousels answer's telemetry sample, recorded in batches into
	// a fresh store; the metric is the median per-call time.
	sample := telemetry.QuerySample{Op: "carousels", Generation: t.e.CacheStats().Generation, DurationMS: 1}
	for _, r := range res {
		cs := telemetry.ClassSample{Class: r.Class, Candidates: len(r.Insights), Emitted: len(r.Insights), Margin: math.NaN()}
		for _, in := range r.Insights {
			cs.Scores = append(cs.Scores, in.Score)
			cs.Attrs = append(cs.Attrs, in.Attrs)
		}
		sample.Classes = append(sample.Classes, cs)
	}
	store := telemetry.New(telemetry.Config{})
	var rec []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		for i := 0; i < recordBatch; i++ {
			store.Record(sample)
		}
		rec = append(rec, float64(time.Since(start).Nanoseconds())/1e3/recordBatch)
	}
	t.m["obs.telemetry_record_us"] = common.Median(rec)
}
