package sketch

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// Projection is the random-projection sketch of one centered column:
// the k dot products y_i = b̃·r_i with shared Gaussian directions
// r_1..r_k. Because dot products are additive across row partitions,
// Projections over disjoint row ranges merge by summation — the
// composability §3 of the paper relies on. From Projections Foresight
// derives:
//
//   - the random hyperplane (SimHash) bit vector sign(y_i), whose
//     pairwise Hamming distance estimates the angle between columns
//     (Charikar 2002) and therefore the Pearson correlation
//     ρ̂ = cos(πH/k);
//   - Johnson–Lindenstrauss inner-product estimates
//     ⟨x̃,ỹ⟩ ≈ (1/k)Σ yx_i·yy_i, i.e. covariance after dividing by n.
type Projection struct {
	// Dots are the k raw projection values.
	Dots []float64
	// Rows is the number of stream rows projected (missing cells are
	// mean-imputed, i.e. contribute zero after centering).
	Rows int
	// Seed identifies the shared direction set; merging or comparing
	// sketches with different seeds is a shape error.
	Seed int64
}

// K returns the number of projection directions.
func (p *Projection) K() int { return len(p.Dots) }

// Merge adds a Projection built over a disjoint row partition with
// the same directions (same seed, same k, same per-partition row
// offsets handled by the caller). Rows accumulate.
func (p *Projection) Merge(other *Projection) error {
	if other == nil {
		return nil
	}
	if len(p.Dots) != len(other.Dots) || p.Seed != other.Seed {
		return ErrShapeMismatch
	}
	for i := range p.Dots {
		p.Dots[i] += other.Dots[i]
	}
	p.Rows += other.Rows
	return nil
}

// EstimateDot returns the JL estimate of ⟨x̃,ỹ⟩ (the un-normalized
// covariance) between the two projected columns.
func (p *Projection) EstimateDot(other *Projection) float64 {
	if other == nil || len(p.Dots) != len(other.Dots) || len(p.Dots) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range p.Dots {
		sum += p.Dots[i] * other.Dots[i]
	}
	return sum / float64(len(p.Dots))
}

// EstimateCovariance returns the JL covariance estimate
// ⟨x̃,ỹ⟩/n.
func (p *Projection) EstimateCovariance(other *Projection) float64 {
	if p.Rows == 0 {
		return math.NaN()
	}
	return p.EstimateDot(other) / float64(p.Rows)
}

// EstimateCorrelation returns the JL correlation estimate: the
// estimated covariance normalized by the *exact* standard deviations
// sdX and sdY (obtained for free from the Moments sketch — another
// composition). The result is clamped to [-1, 1].
func (p *Projection) EstimateCorrelation(other *Projection, sdX, sdY float64) float64 {
	if sdX == 0 || sdY == 0 || math.IsNaN(sdX) || math.IsNaN(sdY) {
		return math.NaN()
	}
	r := p.EstimateCovariance(other) / (sdX * sdY)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// Hyperplane is the random hyperplane (SimHash) sketch: one sign bit
// per shared random direction. |B|·k bits for the whole dataset, as
// the paper notes.
type Hyperplane struct {
	bits []uint64
	k    int
	seed int64
}

// HyperplaneFromProjection derives the sign bit-vector φ(b) from a
// Projection (bit i = 1 iff b̃·r_i ≥ 0).
func HyperplaneFromProjection(p *Projection) *Hyperplane {
	h := &Hyperplane{
		bits: make([]uint64, (len(p.Dots)+63)/64),
		k:    len(p.Dots),
		seed: p.Seed,
	}
	for i, d := range p.Dots {
		if d >= 0 {
			h.bits[i/64] |= 1 << uint(i%64)
		}
	}
	return h
}

// K returns the number of hyperplanes (bits).
func (h *Hyperplane) K() int { return h.k }

// Hamming returns the Hamming distance H(φ(x), φ(y)) between two
// sketches, or -1 on shape mismatch.
func (h *Hyperplane) Hamming(other *Hyperplane) int {
	if other == nil || h.k != other.k || len(h.bits) != len(other.bits) || h.seed != other.seed {
		return -1
	}
	d := 0
	for i := range h.bits {
		d += bits.OnesCount64(h.bits[i] ^ other.bits[i])
	}
	return d
}

// EstimateCorrelation returns the paper's estimator
// ρ̂(x,y) = cos(π·H(φ(x),φ(y))/k).
func (h *Hyperplane) EstimateCorrelation(other *Hyperplane) float64 {
	d := h.Hamming(other)
	if d < 0 || h.k == 0 {
		return math.NaN()
	}
	return math.Cos(math.Pi * float64(d) / float64(h.k))
}

// ProjectConfig controls the shared-direction projection pass.
type ProjectConfig struct {
	// K is the number of random directions (bits of the hyperplane
	// sketch). The paper recommends k = O(log²n); KForRows implements
	// that sizing. Defaults to 256 when ≤ 0.
	K int
	// Seed makes the direction set deterministic.
	Seed int64
	// BlockRows is the row-block size for direction generation
	// (memory = BlockRows·K·4 bytes). Defaults to 4096 when ≤ 0.
	BlockRows int
	// Workers parallelizes the per-column accumulation inside each
	// row block (0 or 1 = sequential, < 0 = GOMAXPROCS, n > 1 = n
	// goroutines — the sketch layer's uniform convention). Direction
	// generation stays sequential so the directions — and therefore
	// the sketches — are identical at any worker count.
	Workers int
}

func (c *ProjectConfig) fill() {
	if c.K <= 0 {
		c.K = 256
	}
	if c.BlockRows <= 0 {
		c.BlockRows = 4096
	}
}

// KForRows returns the paper's k = O(log²n) sizing: ⌈c·log₂²n⌉,
// with c = 1 and a floor of 64.
func KForRows(n int) int {
	if n < 2 {
		return 64
	}
	l := math.Log2(float64(n))
	k := int(math.Ceil(l * l))
	if k < 64 {
		k = 64
	}
	return k
}

// ProjectColumns computes the k-dimensional Gaussian projections of
// every column in one pass over the data. cols[j] is the j-th column's
// values (NaN = missing, mean-imputed to zero after centering);
// means[j] its mean. The Gaussian directions are generated
// block-by-block from cfg.Seed and are identical for every column and
// every call with the same (rows, cfg), so sketches from different
// calls are comparable. Cost: O(d·n·k) multiply-adds plus O(n·k)
// Gaussian draws; memory O(BlockRows·k + d·k).
func ProjectColumns(cols [][]float64, means []float64, rows int, cfg ProjectConfig) []*Projection {
	return projectRanges(cols, means, [][2]int{{0, rows}}, cfg)[0]
}

// gaussBlock is one row block of the shared Gaussian direction
// stream: nb·K row-major float32 draws covering global rows
// [start, start+nb). The buffer is pooled; the consumer returns it
// after accumulating.
type gaussBlock struct {
	start int
	nb    int
	buf   *[]float32
}

// projectRanges is the projection kernel. For every row range in
// bounds (ascending and disjoint, interior boundaries on BlockRows
// multiples) it returns the per-column Projections of that range's
// rows, as out[range][column]. The direction of global row r depends
// only on (cfg.Seed, cfg.K, r), so projections of disjoint ranges sum
// to the projection of their union up to floating-point associativity.
//
// One producer goroutine generates direction blocks in stream order
// from a single rng (determinism) and routes each block to the one
// range that owns it; blocks before the first range are drawn only to
// keep the stream aligned. One consumer per range accumulates its
// blocks, fanning the columns out over cfg.Workers. Generation
// (~n·k Gaussian draws) pipelines with accumulation (~n·k·d
// multiply-adds), so wall time approaches max(generate,
// accumulate/ranges) instead of their sum. Within a range, every
// column accumulates rows in ascending order whatever the worker
// count, so results are identical at any cfg.Workers.
func projectRanges(cols [][]float64, means []float64, bounds [][2]int, cfg ProjectConfig) [][]*Projection {
	cfg.fill()
	d := len(cols)
	out := make([][]*Projection, len(bounds))
	for p, b := range bounds {
		out[p] = make([]*Projection, d)
		for j := range out[p] {
			out[p][j] = &Projection{Dots: make([]float64, cfg.K), Rows: b[1] - b[0], Seed: cfg.Seed}
		}
	}
	if d == 0 || len(bounds) == 0 {
		return out
	}
	lo, hi := bounds[0][0], bounds[len(bounds)-1][1]
	if hi <= lo {
		return out
	}

	pool := sync.Pool{New: func() any {
		s := make([]float32, cfg.BlockRows*cfg.K)
		return &s
	}}
	chans := make([]chan gaussBlock, len(bounds))
	for p := range chans {
		// Small buffer: lets the producer run ahead a little without
		// letting memory grow past O(ranges·BlockRows·K).
		chans[p] = make(chan gaussBlock, 2)
	}

	go func() {
		rng := rand.New(rand.NewSource(cfg.Seed))
		owner := 0
		for bs := 0; bs < hi; bs += cfg.BlockRows {
			nb := cfg.BlockRows
			if bs+nb > hi {
				nb = hi - bs
			}
			bufp := pool.Get().(*[]float32)
			buf := (*bufp)[:nb*cfg.K]
			for i := range buf {
				buf[i] = float32(rng.NormFloat64())
			}
			if bs+nb <= lo {
				pool.Put(bufp)
				continue
			}
			for bounds[owner][1] <= max(bs, lo) {
				owner++
			}
			chans[owner] <- gaussBlock{start: bs, nb: nb, buf: bufp}
		}
		for _, ch := range chans {
			close(ch)
		}
	}()

	var wg sync.WaitGroup
	for p := range bounds {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for blk := range chans[p] {
				buf := (*blk.buf)[:blk.nb*cfg.K]
				rlo := max(blk.start, bounds[p][0])
				rhi := min(blk.start+blk.nb, bounds[p][1])
				eachColumn(d, cfg.Workers, func(j int) {
					col := cols[j]
					dots := out[p][j].Dots
					mean := means[j]
					for r := rlo; r < rhi && r < len(col); r++ {
						v := col[r]
						if math.IsNaN(v) {
							continue // mean-imputed: centered value is 0
						}
						v -= mean
						if v == 0 {
							continue
						}
						g := buf[(r-blk.start)*cfg.K : (r-blk.start+1)*cfg.K]
						for q, gv := range g {
							dots[q] += v * float64(gv)
						}
					}
				})
				pool.Put(blk.buf)
			}
		}(p)
	}
	wg.Wait()
	return out
}

// ProjectColumn is ProjectColumns for a single column.
func ProjectColumn(col []float64, mean float64, cfg ProjectConfig) *Projection {
	return ProjectColumns([][]float64{col}, []float64{mean}, len(col), cfg)[0]
}
