package stats

import (
	"math"
	"slices"
)

// GroupSilhouette measures how well a categorical attribute segments a
// set of 2-D points: the silhouette of the grouping induced by codes
// (negative codes skipped; points past the end of codes skipped). It
// is Foresight's segmentation metric, and equals
// Silhouette(pts, codes) bit for bit.
func GroupSilhouette(pts []Point2, codes []int32) float64 {
	return GroupSilhouettes(pts, [][]int32{codes})[0]
}

// GroupSilhouettes returns GroupSilhouette(pts, groupings[k]) for
// every grouping k, computing each unordered pairwise distance once
// for the whole batch. Segmentation scores several categorical
// attributes against one (x, y) scatter; batching them pays the
// quadratic distance pass once instead of once per attribute, and
// never twice per pair.
//
// Every result keeps Silhouette's exact bits. Silhouette adds the
// distances from point i to the members of a cluster in ascending
// member order. Here each point holds one running sum per cluster,
// and a pair (i, j) with i < j adds its distance to i's sum for j's
// cluster and to j's sum for i's cluster. The pair loop runs i
// ascending, then j ascending, so a point receives the terms from
// lower partners (as the j of earlier rows) before the terms from
// higher partners (as the i of its own row): ascending partner order,
// the same additions in the same order. dist is symmetric bit for bit
// (Hypot takes absolute values, and x−y is exactly −(y−x)). The
// per-point silhouettes are then averaged in Silhouette's order:
// clusters by ascending code, members by ascending row.
func GroupSilhouettes(pts []Point2, groupings [][]int32) []float64 {
	out := make([]float64, len(groupings))
	for k := range out {
		out[k] = math.NaN()
	}
	if len(pts) < 2 {
		return out
	}
	valid := make([]bool, len(pts))
	for i, p := range pts {
		valid[i] = !math.IsNaN(p.X) && !math.IsNaN(p.Y)
	}
	codeAt := func(codes []int32, i int) int32 {
		if i < len(codes) && valid[i] {
			return codes[i]
		}
		return -1
	}

	// Groupings with at least two clusters among the valid points; the
	// rest stay NaN, as in Silhouette.
	type grouping struct {
		k      int
		codes  []int32
		labels []int32   // distinct codes, ascending: cluster c is labels[c]
		group  []int32   // cluster of each kept point, -1 = excluded
		sizes  []int     // points per cluster
		sums   []float64 // kept point a's distance sum to cluster c at a*len(labels)+c
	}
	var active []*grouping
	for k, codes := range groupings {
		var labels []int32
		for i := range pts {
			if c := codeAt(codes, i); c >= 0 {
				labels = append(labels, c)
			}
		}
		slices.Sort(labels)
		if labels = slices.Compact(labels); len(labels) >= 2 {
			active = append(active, &grouping{k: k, codes: codes, labels: labels})
		}
	}
	if len(active) == 0 {
		return out
	}

	// Keep the points some active grouping includes, in row order.
	var kept []Point2
	var rows []int
	for i := range pts {
		for _, g := range active {
			if codeAt(g.codes, i) >= 0 {
				kept = append(kept, pts[i])
				rows = append(rows, i)
				break
			}
		}
	}
	m := len(kept)
	for _, g := range active {
		ng := len(g.labels)
		g.group = make([]int32, m)
		g.sizes = make([]int, ng)
		g.sums = make([]float64, m*ng)
		for a, i := range rows {
			c := codeAt(g.codes, i)
			if c < 0 {
				g.group[a] = -1
				continue
			}
			d, _ := slices.BinarySearch(g.labels, c)
			g.group[a] = int32(d)
			g.sizes[d]++
		}
	}

	row := make([]float64, m)
	for a := 0; a < m; a++ {
		pa := kept[a]
		for b := a + 1; b < m; b++ {
			row[b] = dist(pa, kept[b])
		}
		for _, g := range active {
			ga := int(g.group[a])
			if ga < 0 {
				continue
			}
			ng := len(g.labels)
			sa := g.sums[a*ng : a*ng+ng]
			for b := a + 1; b < m; b++ {
				gb := g.group[b]
				if gb < 0 {
					continue
				}
				d := row[b]
				sa[gb] += d
				g.sums[b*ng+ga] += d
			}
		}
	}

	for _, g := range active {
		ng := len(g.labels)
		total, count := 0.0, 0
		for c := 0; c < ng; c++ {
			for a := 0; a < m; a++ {
				if int(g.group[a]) != c {
					continue
				}
				s := g.sums[a*ng : a*ng+ng]
				av := 0.0
				if g.sizes[c] > 1 {
					av = s[c] / float64(g.sizes[c]-1)
				}
				bv := math.Inf(1)
				for oc := 0; oc < ng; oc++ {
					if oc == c {
						continue
					}
					if avg := s[oc] / float64(g.sizes[oc]); avg < bv {
						bv = avg
					}
				}
				den := math.Max(av, bv)
				if den > 0 {
					total += (bv - av) / den
					count++
				}
			}
		}
		if count > 0 {
			out[g.k] = total / float64(count)
		}
	}
	return out
}
