package sketch

import (
	"math"
	"runtime"
	"time"

	"foresight/internal/frame"
	"foresight/internal/stats"
)

// One profile builder. §3's sketches are all mergeable, so a one-pass
// build, a parallel build and a streaming append are the same
// operation: sketch a row range, then merge. buildRange is that
// operation. It splits the range into contiguous shards, builds each
// shard's row-local sketches concurrently over zero-copy row views,
// projects every shard through one producer/consumer projection
// kernel (projectRanges), and reduces the shard partials with the
// merge operators in a fixed binary-tree order (mergeTree), so the
// result is reproducible given (frame, cfg, range, shards).
//
// The entry points are thin: BuildProfileSharded is buildRange over
// [0, n) plus the state that ranks, indexes or labels the whole frame;
// BuildProfile is BuildProfileSharded with one shard; Extend is
// buildRange over the appended rows, merged into a clone of the
// profile.

// resolveShards applies the sketch layer's uniform parallelism
// convention to a shard count: 0 and 1 mean sequential, negative
// means GOMAXPROCS.
func resolveShards(shards int) int {
	if shards < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return shards
}

// shardBounds splits rows [lo, hi) into at most `shards` contiguous
// ranges. Interior boundaries align to the projection pass's
// direction blocks — multiples of blockRows counted from global row 0
// — so each direction block is consumed by exactly one shard. Empty
// ranges are dropped; fewer than `shards` ranges come back when the
// span covers fewer blocks than shards.
func shardBounds(lo, hi, shards, blockRows int) [][2]int {
	if hi <= lo {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	firstBlock := lo / blockRows
	lastBlock := (hi + blockRows - 1) / blockRows
	nBlocks := lastBlock - firstBlock
	if shards > nBlocks {
		shards = nBlocks
	}
	bounds := make([][2]int, 0, shards)
	for p := 0; p < shards; p++ {
		bs := firstBlock + p*nBlocks/shards
		be := firstBlock + (p+1)*nBlocks/shards
		if be == bs {
			continue
		}
		start := bs * blockRows
		if start < lo {
			start = lo
		}
		end := be * blockRows
		if end > hi {
			end = hi
		}
		if end > start {
			bounds = append(bounds, [2]int{start, end})
		}
	}
	return bounds
}

// mergeTree reduces n partials in a fixed binary-tree order: in each
// round, index i absorbs index i+stride, and the stride doubles, so
// the result lands at index 0 and the order depends only on n. Pairs
// within a round are independent and run over `workers`.
func mergeTree(n, workers int, merge func(dst, src int)) {
	for stride := 1; stride < n; stride *= 2 {
		var pairs [][2]int
		for i := 0; i+stride < n; i += 2 * stride {
			pairs = append(pairs, [2]int{i, i + stride})
		}
		eachColumn(len(pairs), workers, func(j int) {
			merge(pairs[j][0], pairs[j][1])
		})
	}
}

// buildRange builds the partial profile of rows [lo, hi) of f from up
// to `shards` block-aligned shards. Projections are centered on
// centers (one per numeric column, in frame order); nil centers them
// on the range's own column means, taken from the merged shard
// Moments. The partial carries no row sample, gathers or rank
// projections: those index or rank the whole frame, so the caller
// rebuilds them (indexRows). An empty range yields a zero-row partial.
func buildRange(f *frame.Frame, cfg ProfileConfig, lo, hi, shards int, centers []float64) *DatasetProfile {
	projCfg := ProjectConfig{K: cfg.K, Seed: cfg.Seed + 101, Workers: cfg.Workers}
	projCfg.fill()
	bounds := shardBounds(lo, hi, shards, projCfg.BlockRows)
	if len(bounds) == 0 {
		bounds = [][2]int{{lo, hi}}
	}

	start := time.Now()
	parts := make([]*DatasetProfile, len(bounds))
	eachColumn(len(bounds), shards, func(p int) {
		parts[p] = buildRangeSketches(f, cfg, bounds[p][0], bounds[p][1])
	})
	observeSince("build.shard", start)

	start = time.Now()
	numeric := f.NumericColumns()
	cols := make([][]float64, len(numeric))
	for i, nc := range numeric {
		cols[i] = nc.Values()
	}
	if centers == nil {
		centers = make([]float64, len(numeric))
		moments := make([]Moments, len(parts))
		for i, nc := range numeric {
			for p := range parts {
				moments[p] = parts[p].Numeric[nc.Name()].Moments
			}
			mergeTree(len(moments), 1, func(dst, src int) { moments[dst].Merge(moments[src]) })
			centers[i] = moments[0].Mean
		}
	}
	proj := projectRanges(cols, centers, bounds, projCfg)
	for p := range parts {
		for i, nc := range numeric {
			np := parts[p].Numeric[nc.Name()]
			np.Proj = proj[p][i]
			np.ProjCenter = centers[i]
			np.Planes = HyperplaneFromProjection(np.Proj)
		}
	}
	observeSince("build.project", start)

	start = time.Now()
	mergeTree(len(parts), shards, func(dst, src int) {
		if err := parts[dst].Merge(parts[src]); err != nil {
			// Shard partials share cfg and centers; a mismatch is a
			// programming error.
			panic(err)
		}
	})
	observeSince("build.merge", start)
	return parts[0]
}

// buildRangeSketches builds the row-local sketches of rows
// [start, end) of f: moments, quantiles, value samples, heavy hitters
// and distinct counts — everything in a partial profile except the
// shared-direction projections, which buildRange fills in. Zero-copy
// row views feed the update loops, so a shard touches only its own
// window of each column; columns fan out over cfg.Workers. Per-column
// sketch seeds are salted with the range start, so a given
// (cfg, range) is deterministic while distinct ranges draw independent
// compaction/sampling coins.
func buildRangeSketches(f *frame.Frame, cfg ProfileConfig, start, end int) *DatasetProfile {
	p := &DatasetProfile{
		Rows:        end - start,
		Numeric:     make(map[string]*NumericProfile),
		Categorical: make(map[string]*CategoricalProfile),
		RowSample:   &RowSample{},
		Config:      cfg,
	}
	numeric := f.NumericColumns()
	nps := make([]*NumericProfile, len(numeric))
	eachColumn(len(numeric), cfg.Workers, func(i int) {
		np := &NumericProfile{
			Name:      numeric[i].Name(),
			Quantiles: NewKLL(cfg.KLLSize, cfg.Seed+int64(i)*7+2+int64(start)),
			Sample:    NewReservoir(cfg.SampleSize, cfg.Seed+int64(i)*7+3+int64(start)),
		}
		for _, v := range numeric[i].ValuesRange(start, end) {
			if math.IsNaN(v) {
				continue
			}
			np.Moments.Add(v)
			np.Quantiles.Update(v)
			np.Sample.Update(v)
		}
		nps[i] = np
	})
	for _, np := range nps {
		p.Numeric[np.Name] = np
	}
	categorical := f.CategoricalColumns()
	cps := make([]*CategoricalProfile, len(categorical))
	eachColumn(len(categorical), cfg.Workers, func(i int) {
		cc := categorical[i]
		cp := &CategoricalProfile{
			Name:        cc.Name(),
			Heavy:       NewSpaceSaving(cfg.HeavyCapacity),
			Distinct:    NewKMV(cfg.KMVSize),
			Cardinality: cc.Cardinality(),
			Dict:        cc.Dict(),
		}
		dict := cc.Dict()
		for _, code := range cc.CodesRange(start, end) {
			if code < 0 {
				continue
			}
			item := dict[code]
			cp.Heavy.Update(item)
			cp.Distinct.Update(item)
			cp.Rows++
		}
		cps[i] = cp
	})
	for _, cp := range cps {
		p.Categorical[cp.Name] = cp
	}
	return p
}

// indexRows rebuilds the state of p that indexes or labels the whole
// of f and so cannot come from merged partials: the shared row sample,
// every column's gather at it, and the categorical cardinalities and
// dictionaries (appends can introduce new labels).
func (p *DatasetProfile) indexRows(f *frame.Frame, workers int) {
	p.RowSample = NewRowSample(f.Rows(), p.Config.RowSampleSize, p.Config.Seed+1)
	numeric := f.NumericColumns()
	eachColumn(len(numeric), workers, func(i int) {
		p.Numeric[numeric[i].Name()].RowSampleValues = p.RowSample.GatherFloats(numeric[i].Values())
	})
	categorical := f.CategoricalColumns()
	eachColumn(len(categorical), workers, func(i int) {
		cc := categorical[i]
		cp := p.Categorical[cc.Name()]
		cp.RowSampleCodes = p.RowSample.GatherCodes(cc.Codes())
		cp.Cardinality = cc.Cardinality()
		cp.Dict = append([]string(nil), cc.Dict()...)
	})
	p.Rows = f.Rows()
}

// BuildProfileSharded preprocesses f with its row range split into
// `shards` block-aligned shards built concurrently and reduced with
// the §3 merge operators (see the file comment). The result is
// reproducible given (frame, cfg, shards). Shard counts follow the
// uniform convention: 0 or 1 is the sequential build (BuildProfile),
// negative means GOMAXPROCS (reproducible per machine). Frames of at
// most one direction block never split, so every shard count builds
// them byte-identically to BuildProfile; larger frames agree with it
// on every exact statistic (moments, row counts, cardinalities) while
// sketch-derived scores drift only within sketch error (benchmarked
// in E13).
func BuildProfileSharded(f *frame.Frame, cfg ProfileConfig, shards int) *DatasetProfile {
	defer observeSince("build", time.Now())
	cfg.fill(f.Rows())
	shards = resolveShards(shards)
	// Column loops outside the shard fan-out parallelize over the
	// shards when the build is split, over cfg.Workers otherwise.
	workers := cfg.Workers
	if shards > 1 {
		workers = shards
	}
	p := buildRange(f, cfg, 0, f.Rows(), shards, nil)
	numeric := f.NumericColumns()

	// Spearman rank projections: ranking is a global transform, so the
	// rank columns are computed whole and projected as one range.
	if cfg.Spearman && len(numeric) > 0 {
		start := time.Now()
		rankCols := make([][]float64, len(numeric))
		rankMeans := make([]float64, len(numeric))
		eachColumn(len(numeric), workers, func(i int) {
			rankCols[i] = stats.Ranks(numeric[i].Values())
			rankMeans[i] = stats.Mean(rankCols[i])
		})
		rankProj := ProjectColumns(rankCols, rankMeans, f.Rows(),
			ProjectConfig{K: cfg.K, Seed: cfg.Seed + 211, Workers: workers})
		for i, nc := range numeric {
			np := p.Numeric[nc.Name()]
			np.RankProj = rankProj[i]
			np.RankPlanes = HyperplaneFromProjection(rankProj[i])
		}
		observeSince("build.spearman", start)
	}

	// Merging shard reservoirs yields a valid uniform sample but a
	// different one than the one-shard pass, and sample-driven scores
	// (outlier mean distance, dip) are noisy enough that the resample
	// shows up as score drift. The whole column is in memory, so an
	// O(n) replay with the one-shard seed reproduces its reservoir bit
	// for bit instead.
	if shards > 1 {
		eachColumn(len(numeric), workers, func(i int) {
			sample := NewReservoir(cfg.SampleSize, cfg.Seed+int64(i)*7+3)
			for _, v := range numeric[i].Values() {
				if !math.IsNaN(v) {
					sample.Update(v)
				}
			}
			p.Numeric[numeric[i].Name()].Sample = sample
		})
	}
	p.indexRows(f, workers)
	return p
}
