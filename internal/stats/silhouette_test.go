package stats

import (
	"math"
	"math/rand"
	"testing"
)

// silhouetteRef is Silhouette over the assignment GroupSilhouette
// induces from codes (points past the end of codes are unassigned).
func silhouetteRef(pts []Point2, codes []int32) float64 {
	assign := make([]int, len(pts))
	for i := range assign {
		assign[i] = -1
		if i < len(codes) {
			assign[i] = int(codes[i])
		}
	}
	return Silhouette(pts, assign)
}

// TestGroupSilhouettesMatchesReference is the bit-identity property of
// the batched kernel: every grouping of a batch scores exactly what
// the map-based Silhouette scores for it alone, across NaN
// coordinates, missing (negative) codes, singleton clusters, a lone
// cluster (NaN) and twelve clusters.
func TestGroupSilhouettesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(120)
		pts := make([]Point2, n)
		for i := range pts {
			pts[i] = Point2{X: rng.NormFloat64(), Y: rng.NormFloat64() * 3}
			if rng.Intn(15) == 0 {
				pts[i].X = math.NaN()
			}
			if rng.Intn(15) == 0 {
				pts[i].Y = math.NaN()
			}
		}
		batch := make([][]int32, 1+rng.Intn(6))
		for k := range batch {
			codes := make([]int32, n)
			switch k % 6 {
			case 0: // up to twelve clusters, some missing cells
				groups := 2 + rng.Intn(11)
				for i := range codes {
					codes[i] = int32(rng.Intn(groups))
					if rng.Intn(10) == 0 {
						codes[i] = -1 - int32(rng.Intn(3))
					}
				}
			case 1: // one cluster: undefined
				for i := range codes {
					codes[i] = 4
				}
			case 2: // singletons next to one big cluster, sparse labels
				for i := range codes {
					codes[i] = 7
					if rng.Intn(8) == 0 {
						codes[i] = int32(100 + i)
					}
				}
			case 3: // exactly twelve clusters, round robin
				for i := range codes {
					codes[i] = int32(i % 12)
				}
			case 4: // mostly missing
				for i := range codes {
					codes[i] = -1
					if rng.Intn(4) == 0 {
						codes[i] = int32(rng.Intn(3))
					}
				}
			case 5: // codes shorter than the points
				codes = codes[:rng.Intn(n+1)]
				for i := range codes {
					codes[i] = int32(rng.Intn(4))
				}
			}
			batch[k] = codes
		}
		got := GroupSilhouettes(pts, batch)
		for k, codes := range batch {
			want := silhouetteRef(pts, codes)
			if math.Float64bits(got[k]) != math.Float64bits(want) && !(math.IsNaN(got[k]) && math.IsNaN(want)) {
				t.Fatalf("trial %d grouping %d: batched %v (%#x) vs reference %v (%#x)",
					trial, k, got[k], math.Float64bits(got[k]), want, math.Float64bits(want))
			}
			if one := GroupSilhouette(pts, codes); math.Float64bits(one) != math.Float64bits(got[k]) && !(math.IsNaN(one) && math.IsNaN(got[k])) {
				t.Fatalf("trial %d grouping %d: batch of one %v vs batch %v", trial, k, one, got[k])
			}
		}
	}
	if got := GroupSilhouettes([]Point2{{0, 0}}, [][]int32{{0}, {1}}); !math.IsNaN(got[0]) || !math.IsNaN(got[1]) {
		t.Errorf("one point: %v, want NaN", got)
	}
	if got := GroupSilhouettes(nil, nil); len(got) != 0 {
		t.Errorf("empty batch: %v", got)
	}
}
