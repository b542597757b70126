package stats

import (
	"math"
	"math/rand"
	"sort"
)

// KMeans1D clusters the values xs into k groups with Lloyd's algorithm
// seeded deterministically by quantile spacing (no randomness needed
// in one dimension). It returns per-point assignments and the final
// centers, sorted ascending. NaN values are assigned cluster 0 but do
// not influence the centers. maxIter caps Lloyd iterations.
func KMeans1D(xs []float64, k, maxIter int) (assign []int, centers []float64) {
	assign = make([]int, len(xs))
	if k < 1 {
		k = 1
	}
	clean := sortedCopy(xs)
	if len(clean) == 0 {
		return assign, make([]float64, k)
	}
	if k > len(clean) {
		k = len(clean)
	}
	centers = make([]float64, k)
	for i := range centers {
		q := (float64(i) + 0.5) / float64(k)
		centers[i] = QuantileSorted(clean, q)
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	sums := make([]float64, k)
	counts := make([]float64, k)
	for iter := 0; iter < maxIter; iter++ {
		for i := range sums {
			sums[i], counts[i] = 0, 0
		}
		for _, v := range clean {
			c := nearestCenter(centers, v)
			sums[c] += v
			counts[c]++
		}
		moved := false
		for i := range centers {
			if counts[i] == 0 {
				continue
			}
			next := sums[i] / counts[i]
			if next != centers[i] {
				centers[i] = next
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	sort.Float64s(centers)
	for i, v := range xs {
		if math.IsNaN(v) {
			assign[i] = 0
			continue
		}
		assign[i] = nearestCenter(centers, v)
	}
	return assign, centers
}

func nearestCenter(centers []float64, v float64) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range centers {
		d := math.Abs(v - c)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Point2 is a point in the plane, used by 2-D segmentation insights.
type Point2 struct{ X, Y float64 }

// KMeans2D clusters 2-D points with Lloyd's algorithm and k-means++
// seeding driven by rng (deterministic given a seeded source). Points
// with NaN coordinates are skipped in fitting and assigned -1.
func KMeans2D(pts []Point2, k, maxIter int, rng *rand.Rand) (assign []int, centers []Point2) {
	assign = make([]int, len(pts))
	var clean []Point2
	var cleanIdx []int
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			assign[i] = -1
			continue
		}
		clean = append(clean, p)
		cleanIdx = append(cleanIdx, i)
	}
	if len(clean) == 0 || k < 1 {
		return assign, nil
	}
	if k > len(clean) {
		k = len(clean)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	// k-means++ seeding.
	centers = make([]Point2, 0, k)
	centers = append(centers, clean[rng.Intn(len(clean))])
	dist2 := make([]float64, len(clean))
	for len(centers) < k {
		total := 0.0
		for i, p := range clean {
			d := math.Inf(1)
			for _, c := range centers {
				dd := sq(p.X-c.X) + sq(p.Y-c.Y)
				if dd < d {
					d = dd
				}
			}
			dist2[i] = d
			total += d
		}
		if total == 0 {
			// All remaining points coincide with a center.
			centers = append(centers, clean[rng.Intn(len(clean))])
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := len(clean) - 1
		for i, d := range dist2 {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
		centers = append(centers, clean[pick])
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	cluster := make([]int, len(clean))
	for iter := 0; iter < maxIter; iter++ {
		moved := false
		for i, p := range clean {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				d := sq(p.X-ctr.X) + sq(p.Y-ctr.Y)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if cluster[i] != best {
				cluster[i] = best
				moved = true
			}
		}
		sums := make([]Point2, k)
		counts := make([]float64, k)
		for i, p := range clean {
			sums[cluster[i]].X += p.X
			sums[cluster[i]].Y += p.Y
			counts[cluster[i]]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = Point2{sums[c].X / counts[c], sums[c].Y / counts[c]}
			}
		}
		if !moved {
			break
		}
	}
	for i, ci := range cleanIdx {
		assign[ci] = cluster[i]
	}
	return assign, centers
}

func sq(x float64) float64 { return x * x }

// Silhouette returns the mean silhouette coefficient of a 2-D
// clustering: ((b−a)/max(a,b)) averaged over points, where a is the
// mean intra-cluster distance and b the mean distance to the nearest
// other cluster. Values near 1 indicate strong segmentation. Points
// assigned a negative cluster are skipped. O(n²); callers should
// sample large inputs first. This map-based form is the reference
// implementation: GroupSilhouettes must reproduce its bits.
func Silhouette(pts []Point2, assign []int) float64 {
	n := len(pts)
	if n != len(assign) || n < 2 {
		return math.NaN()
	}
	// Cluster membership lists, iterated in sorted cluster order so
	// floating-point accumulation is deterministic across runs.
	members := map[int][]int{}
	for i, c := range assign {
		if c >= 0 && !math.IsNaN(pts[i].X) && !math.IsNaN(pts[i].Y) {
			members[c] = append(members[c], i)
		}
	}
	if len(members) < 2 {
		return math.NaN()
	}
	clusters := make([]int, 0, len(members))
	for c := range members {
		clusters = append(clusters, c)
	}
	sort.Ints(clusters)
	total, count := 0.0, 0
	for _, c := range clusters {
		idxs := members[c]
		for _, i := range idxs {
			a := 0.0
			if len(idxs) > 1 {
				for _, j := range idxs {
					if j != i {
						a += dist(pts[i], pts[j])
					}
				}
				a /= float64(len(idxs) - 1)
			}
			b := math.Inf(1)
			for _, oc := range clusters {
				oidxs := members[oc]
				if oc == c || len(oidxs) == 0 {
					continue
				}
				sum := 0.0
				for _, j := range oidxs {
					sum += dist(pts[i], pts[j])
				}
				avg := sum / float64(len(oidxs))
				if avg < b {
					b = avg
				}
			}
			den := math.Max(a, b)
			if den > 0 {
				total += (b - a) / den
				count++
			}
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return total / float64(count)
}

func dist(p, q Point2) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}
