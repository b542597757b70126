package core

import (
	"fmt"
	"math"

	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// numericPairs returns all (x, y) tuples with x before y in column
// order (i < j, as the paper defines the linear-relationship class).
func numericPairs(f *frame.Frame) [][]string {
	numeric := f.NumericColumns()
	var out [][]string
	for i := 0; i < len(numeric); i++ {
		for j := i + 1; j < len(numeric); j++ {
			out = append(out, []string{numeric[i].Name(), numeric[j].Name()})
		}
	}
	return out
}

// linearClass is insight class #6: strength of a linear relationship
// between two numeric columns, ranked by |ρ| (alternative: R²);
// scatter plot with best-fit line.
type linearClass struct{}

// NewLinearClass returns the linear-relationship insight class.
func NewLinearClass() Class { return &linearClass{} }

func (c *linearClass) Name() string { return "linear" }
func (c *linearClass) Description() string {
	return "Strong linear relationship between two attributes"
}
func (c *linearClass) Arity() int        { return 2 }
func (c *linearClass) Metrics() []string { return []string{"pearson", "r2"} }
func (c *linearClass) VisKind() VisKind  { return VisScatterFit }

func (c *linearClass) Candidates(f *frame.Frame) [][]string { return numericPairs(f) }

func (c *linearClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	if err := checkArity("linear", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	x, err := f.Numeric(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	y, err := f.Numeric(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	rho := stats.Pearson(x.Values(), y.Values())
	fit := stats.FitLine(x.Values(), y.Values())
	in := Insight{
		Class:  "linear",
		Metric: metric,
		Attrs:  attrs,
		Vis:    VisScatterFit,
		Details: map[string]float64{
			"rho":       rho,
			"slope":     fit.Slope,
			"intercept": fit.Intercept,
			"r2":        fit.R2,
		},
	}
	switch metric {
	case "pearson":
		in.Raw = rho
		in.Score = math.Abs(rho)
	case "r2":
		in.Raw = fit.R2
		in.Score = fit.R2
	}
	return in, nil
}

func (c *linearClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("linear", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	rho, err := p.EstimatePearson(attrs[0], attrs[1])
	if err != nil {
		return Insight{}, err
	}
	in := Insight{
		Class:   "linear",
		Metric:  metric,
		Attrs:   attrs,
		Approx:  true,
		Vis:     VisScatterFit,
		Details: map[string]float64{"rho": rho},
	}
	switch metric {
	case "pearson":
		in.Raw = rho
		in.Score = math.Abs(rho)
	case "r2":
		in.Raw = rho * rho
		in.Score = rho * rho
	}
	return in, nil
}

// monotonicClass covers the paper's "nonlinear monotonic
// relationships" additional insight: ranked by |Spearman ρ|
// (alternative: Kendall τ-b); scatter plot.
type monotonicClass struct{}

// NewMonotonicClass returns the monotonic-relationship insight class.
func NewMonotonicClass() Class { return &monotonicClass{} }

func (c *monotonicClass) Name() string { return "monotonic" }
func (c *monotonicClass) Description() string {
	return "Monotonic (possibly nonlinear) relationship between two attributes"
}
func (c *monotonicClass) Arity() int        { return 2 }
func (c *monotonicClass) Metrics() []string { return []string{"spearman", "kendall"} }
func (c *monotonicClass) VisKind() VisKind  { return VisScatter }

func (c *monotonicClass) Candidates(f *frame.Frame) [][]string { return numericPairs(f) }

func (c *monotonicClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	if err := checkArity("monotonic", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	x, err := f.Numeric(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	y, err := f.Numeric(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	var raw float64
	switch metric {
	case "spearman":
		if rx, ry := x.Ranks(), y.Ranks(); rx != nil && ry != nil {
			// stats.Spearman's pairwise-complete step returns NaN-free
			// columns unchanged and then computes exactly this, so the
			// per-column ranks give the same bits without re-sorting
			// both columns for every pair.
			raw = stats.Pearson(rx, ry)
		} else {
			raw = stats.Spearman(x.Values(), y.Values())
		}
	case "kendall":
		raw = stats.KendallTauB(x.Values(), y.Values())
	}
	return Insight{
		Class:   "monotonic",
		Metric:  metric,
		Attrs:   attrs,
		Score:   math.Abs(raw),
		Raw:     raw,
		Vis:     VisScatter,
		Details: map[string]float64{"rho": raw},
	}, nil
}

func (c *monotonicClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("monotonic", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	var raw float64
	switch metric {
	case "spearman":
		// Prefer the rank-projection sketch; fall back to the shared
		// row sample when rank projections were not built.
		if est, err := p.EstimateSpearman(attrs[0], attrs[1]); err == nil {
			raw = est
		} else {
			px, err := p.NumericProfileOf(attrs[0])
			if err != nil {
				return Insight{}, err
			}
			py, err := p.NumericProfileOf(attrs[1])
			if err != nil {
				return Insight{}, err
			}
			raw = stats.Spearman(px.RowSampleValues, py.RowSampleValues)
		}
	case "kendall":
		px, err := p.NumericProfileOf(attrs[0])
		if err != nil {
			return Insight{}, err
		}
		py, err := p.NumericProfileOf(attrs[1])
		if err != nil {
			return Insight{}, err
		}
		raw = stats.KendallTauB(px.RowSampleValues, py.RowSampleValues)
	}
	return Insight{
		Class:   "monotonic",
		Metric:  metric,
		Attrs:   attrs,
		Score:   math.Abs(raw),
		Raw:     raw,
		Approx:  true,
		Vis:     VisScatter,
		Details: map[string]float64{"rho": raw},
	}, nil
}

// dependenceClass covers "general statistical dependencies" between a
// numeric and a categorical attribute, ranked by the correlation ratio
// η² (share of numeric variance explained by the grouping); strip-plot
// visualization. Attrs order: [numeric, categorical].
type dependenceClass struct {
	maxCardinality int
}

// NewDependenceClass returns the numeric×categorical dependence class.
// Categorical candidates are limited to maxCardinality groups
// (64 when ≤ 0) to keep group statistics meaningful.
func NewDependenceClass(maxCardinality int) Class {
	if maxCardinality <= 0 {
		maxCardinality = 64
	}
	return &dependenceClass{maxCardinality: maxCardinality}
}

func (c *dependenceClass) Name() string { return "dependence" }
func (c *dependenceClass) Description() string {
	return "Numeric attribute depends on a categorical attribute"
}
func (c *dependenceClass) Arity() int        { return 2 }
func (c *dependenceClass) Metrics() []string { return []string{"eta2"} }
func (c *dependenceClass) VisKind() VisKind  { return VisStrip }

func (c *dependenceClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		for _, cc := range f.CategoricalColumns() {
			card := cc.Cardinality()
			if card < 2 || card > c.maxCardinality || identifierLike(cc) {
				continue
			}
			out = append(out, []string{nc.Name(), cc.Name()})
		}
	}
	return out
}

func (c *dependenceClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	if err := checkArity("dependence", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	num, err := f.Numeric(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	cat, err := f.Categorical(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	eta2 := stats.CorrelationRatio(cat.Codes(), num.Values(), cat.Cardinality())
	return Insight{
		Class:  "dependence",
		Metric: metric,
		Attrs:  attrs,
		Score:  eta2,
		Raw:    eta2,
		Vis:    VisStrip,
		Details: map[string]float64{
			"groups": float64(cat.Cardinality()),
		},
	}, nil
}

func (c *dependenceClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("dependence", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	np, err := p.NumericProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	cp, err := p.CategoricalProfileOf(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	eta2 := stats.CorrelationRatio(cp.RowSampleCodes, np.RowSampleValues, cp.Cardinality)
	return Insight{
		Class:  "dependence",
		Metric: metric,
		Attrs:  attrs,
		Score:  eta2,
		Raw:    eta2,
		Approx: true,
		Vis:    VisStrip,
		Details: map[string]float64{
			"groups": float64(cp.Cardinality),
		},
	}, nil
}

// catAssocClass measures association between two categorical
// attributes, ranked by Cramér's V (alternative: mutual information);
// mosaic/heatmap visualization.
type catAssocClass struct {
	maxCardinality int
}

// NewCategoricalAssociationClass returns the categorical-association
// class; candidate columns are limited to maxCardinality levels
// (64 when ≤ 0).
func NewCategoricalAssociationClass(maxCardinality int) Class {
	if maxCardinality <= 0 {
		maxCardinality = 64
	}
	return &catAssocClass{maxCardinality: maxCardinality}
}

func (c *catAssocClass) Name() string { return "catassoc" }
func (c *catAssocClass) Description() string {
	return "Association between two categorical attributes"
}
func (c *catAssocClass) Arity() int        { return 2 }
func (c *catAssocClass) Metrics() []string { return []string{"cramersv", "mutualinfo"} }
func (c *catAssocClass) VisKind() VisKind  { return VisMosaic }

func (c *catAssocClass) Candidates(f *frame.Frame) [][]string {
	cats := f.CategoricalColumns()
	var eligible []*frame.CategoricalColumn
	for _, cc := range cats {
		if card := cc.Cardinality(); card >= 2 && card <= c.maxCardinality && !identifierLike(cc) {
			eligible = append(eligible, cc)
		}
	}
	var out [][]string
	for i := 0; i < len(eligible); i++ {
		for j := i + 1; j < len(eligible); j++ {
			out = append(out, []string{eligible[i].Name(), eligible[j].Name()})
		}
	}
	return out
}

func (c *catAssocClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	if err := checkArity("catassoc", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	a, err := f.Categorical(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	b, err := f.Categorical(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	ct := stats.NewContingency(a.Codes(), b.Codes(), a.Cardinality(), b.Cardinality())
	var raw float64
	switch metric {
	case "cramersv":
		raw = ct.CramersV()
	case "mutualinfo":
		raw = ct.MutualInformation()
	}
	return Insight{
		Class:  "catassoc",
		Metric: metric,
		Attrs:  attrs,
		Score:  raw,
		Raw:    raw,
		Vis:    VisMosaic,
		Details: map[string]float64{
			"chi2": ct.ChiSquare(),
		},
	}, nil
}

func (c *catAssocClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("catassoc", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	a, err := p.CategoricalProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	b, err := p.CategoricalProfileOf(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	ct := stats.NewContingency(a.RowSampleCodes, b.RowSampleCodes, a.Cardinality, b.Cardinality)
	var raw float64
	switch metric {
	case "cramersv":
		raw = ct.CramersV()
	case "mutualinfo":
		raw = ct.MutualInformation()
	}
	return Insight{
		Class:  "catassoc",
		Metric: metric,
		Attrs:  attrs,
		Score:  raw,
		Raw:    raw,
		Approx: true,
		Vis:    VisMosaic,
	}, nil
}

// segmentationClass covers the paper's "strong clustering of
// (x,y)-values according to z-values" example: a categorical attribute
// that cleanly segments a 2-D numeric scatter, ranked by the mean
// silhouette of the category-induced grouping. Attrs order:
// [numericX, numericY, categorical].
type segmentationClass struct {
	maxCardinality int
	// sampleCap bounds the O(n²) silhouette computation.
	sampleCap int
}

// NewSegmentationClass returns the segmentation insight class;
// categorical candidates are limited to maxCardinality groups (12 when
// ≤ 0). Because silhouettes are quadratic, scoring over n > sampleCap
// rows (512 when ≤ 0) keeps every ⌊n/sampleCap⌋-th row. The stride
// floors, so between sampleCap and 2·sampleCap−1 points remain: 556
// of IMDB's 5,000 rows and 667 of Parkinson's 2,000 at the default.
func NewSegmentationClass(maxCardinality, sampleCap int) Class {
	if maxCardinality <= 0 {
		maxCardinality = 12
	}
	if sampleCap <= 0 {
		sampleCap = 512
	}
	return &segmentationClass{maxCardinality: maxCardinality, sampleCap: sampleCap}
}

func (c *segmentationClass) Name() string { return "segmentation" }
func (c *segmentationClass) Description() string {
	return "A categorical attribute segments a numeric scatter into clusters"
}
func (c *segmentationClass) Arity() int        { return 3 }
func (c *segmentationClass) Metrics() []string { return []string{"silhouette"} }
func (c *segmentationClass) VisKind() VisKind  { return VisColorScatter }

func (c *segmentationClass) Candidates(f *frame.Frame) [][]string {
	var cats []*frame.CategoricalColumn
	for _, cc := range f.CategoricalColumns() {
		if card := cc.Cardinality(); card >= 2 && card <= c.maxCardinality && !identifierLike(cc) {
			cats = append(cats, cc)
		}
	}
	numeric := f.NumericColumns()
	var out [][]string
	for i := 0; i < len(numeric); i++ {
		for j := i + 1; j < len(numeric); j++ {
			for _, cc := range cats {
				out = append(out, []string{numeric[i].Name(), numeric[j].Name(), cc.Name()})
			}
		}
	}
	return out
}

// SameBatch joins segmentation candidates that share their (x, y)
// pair: every categorical z of a pair is scored against one scatter,
// so the sample, its standardization and its pairwise distances are
// computed once per pair.
func (c *segmentationClass) SameBatch(a, b []string) bool {
	return len(a) == 3 && len(b) == 3 && a[0] == b[0] && a[1] == b[1]
}

func (c *segmentationClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	ins, errs := c.ScoreBatch(f, nil, [][]string{attrs}, metric, false)
	return ins[0], errs[0]
}

func (c *segmentationClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	ins, errs := c.ScoreBatch(nil, p, [][]string{attrs}, metric, true)
	return ins[0], errs[0]
}

// ScoreBatch scores every z of one (x, y) pair with one batched
// silhouette pass (stats.GroupSilhouettes). The exact path samples the
// frame's rows; the approximate path samples the sketch store's shared
// row sample, subsampled with one stride so points and codes stay
// row-aligned (silhouettes over misaligned pairs are garbage).
func (c *segmentationClass) ScoreBatch(f *frame.Frame, p *sketch.DatasetProfile, batch [][]string, metric string, approx bool) ([]Insight, []error) {
	out := make([]Insight, len(batch))
	errs := make([]error, len(batch))
	var live []int // tuples not failed yet, all on batch[live[0]]'s pair
	for i, attrs := range batch {
		if err := checkArity("segmentation", attrs, 3); err != nil {
			errs[i] = err
		} else if len(live) > 0 && !c.SameBatch(batch[live[0]], attrs) {
			errs[i] = fmt.Errorf("core: segmentation batch mixes (x, y) pairs: %v and %v", batch[live[0]], attrs)
		} else {
			live = append(live, i)
		}
	}
	fail := func(err error) ([]Insight, []error) {
		for _, i := range live {
			errs[i] = err
		}
		return out, errs
	}
	if len(live) == 0 {
		return out, errs
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return fail(err)
	}
	xName, yName := batch[live[0]][0], batch[live[0]][1]
	var xs, ys []float64
	if approx {
		px, err := p.NumericProfileOf(xName)
		if err != nil {
			return fail(err)
		}
		py, err := p.NumericProfileOf(yName)
		if err != nil {
			return fail(err)
		}
		xs, ys = px.RowSampleValues, py.RowSampleValues
	} else {
		x, err := f.Numeric(xName)
		if err != nil {
			return fail(err)
		}
		y, err := f.Numeric(yName)
		if err != nil {
			return fail(err)
		}
		xs, ys = x.Values(), y.Values()
	}

	// Each z samples the first n rows, n capped by its own code
	// column; every z shares one n unless a row sample is ragged.
	type member struct {
		i      int
		codes  []int32
		n      int
		groups int
	}
	var zs []member
	for _, i := range live {
		var codes []int32
		var groups int
		if approx {
			z, err := p.CategoricalProfileOf(batch[i][2])
			if err != nil {
				errs[i] = err
				continue
			}
			codes, groups = z.RowSampleCodes, z.Cardinality
		} else {
			z, err := f.Categorical(batch[i][2])
			if err != nil {
				errs[i] = err
				continue
			}
			codes, groups = z.Codes(), z.Cardinality()
		}
		zs = append(zs, member{i: i, codes: codes, n: min(len(xs), len(ys), len(codes)), groups: groups})
	}
	for len(zs) > 0 {
		n := zs[0].n
		pts, rows := c.scatter(xs, ys, n)
		var same, rest []member
		var groupings [][]int32
		for _, z := range zs {
			if z.n != n {
				rest = append(rest, z)
				continue
			}
			codes := make([]int32, len(rows))
			for j, r := range rows {
				codes[j] = z.codes[r]
			}
			same = append(same, z)
			groupings = append(groupings, codes)
		}
		for j, sil := range stats.GroupSilhouettes(pts, groupings) {
			z := same[j]
			if math.IsNaN(sil) {
				errs[z.i] = errUndefined("segmentation", batch[z.i])
				continue
			}
			score := sil
			if score < 0 {
				score = 0 // negative silhouettes mean "no segmentation"
			}
			out[z.i] = Insight{
				Class:  "segmentation",
				Metric: metric,
				Attrs:  batch[z.i],
				Score:  score,
				Raw:    sil,
				Approx: approx,
				Vis:    VisColorScatter,
				Details: map[string]float64{
					"groups": float64(z.groups),
				},
			}
		}
		zs = rest
	}
	return out, errs
}

// scatter standardizes (xs, ys) by their full-column mean and standard
// deviation and samples every step-th of the first n rows, returning
// the points and the sampled row indexes.
func (c *segmentationClass) scatter(xs, ys []float64, n int) ([]stats.Point2, []int) {
	step := 1
	if c.sampleCap > 0 && n > c.sampleCap {
		step = n / c.sampleCap
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
	var rows []int
	for i := 0; i < n; i += step {
		pts = append(pts, stats.Point2{X: (xs[i] - mx) / sx, Y: (ys[i] - my) / sy})
		rows = append(rows, i)
	}
	return pts, rows
}

func errUndefined(class string, attrs []string) error {
	return &UndefinedError{Class: class, Attrs: attrs}
}

// UndefinedError reports that an insight metric is undefined for a
// tuple (degenerate data such as constant columns).
type UndefinedError struct {
	Class string
	Attrs []string
}

func (e *UndefinedError) Error() string {
	return "core: " + e.Class + " undefined for " + joinAttrs(e.Attrs)
}

func joinAttrs(attrs []string) string {
	out := ""
	for i, a := range attrs {
		if i > 0 {
			out += ","
		}
		out += a
	}
	return out
}

// BuiltinClasses returns the twelve insight classes Foresight ships
// with, in carousel display order.
func BuiltinClasses() []Class {
	return []Class{
		NewLinearClass(),
		NewOutliersClass(nil),
		NewHeavyTailsClass(),
		NewDispersionClass(),
		NewSkewClass(),
		NewHeavyHittersClass(0),
		NewMonotonicClass(),
		NewDependenceClass(0),
		NewCategoricalAssociationClass(0),
		NewMultimodalityClass(),
		NewSegmentationClass(0, 0),
		NewUniformityClass(),
	}
}
