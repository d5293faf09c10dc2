// Package kmeans implements k-means clustering over 2-D points. The
// paper's force-directed community optimizations (§VI.B.1) use k-means to
// locate the centroids of the spatial clusters a community has broken into,
// and the hierarchical stitching hop optimizer uses it to seed intermediate
// destinations.
package kmeans

import (
	"math"
	"math/rand"
)

// Point is a position in the plane. Layout coordinates are integers but
// centroids are fractional, so the clustering space is float64.
type Point struct {
	X, Y float64
}

func sqDist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// Result holds a clustering: Centroids[i] is the centre of cluster i and
// Assign[j] names the cluster of input point j.
type Result struct {
	Centroids []Point
	Assign    []int
}

// KMeans clusters pts into k clusters using k-means++ seeding followed by
// Lloyd iterations, stopping after maxIter rounds or when assignments stop
// changing. k is clamped to [1, len(pts)]. A nil rng or empty input yields
// an empty Result.
func KMeans(pts []Point, k, maxIter int, rng *rand.Rand) Result {
	if len(pts) == 0 || rng == nil {
		return Result{}
	}
	if k < 1 {
		k = 1
	}
	if k > len(pts) {
		k = len(pts)
	}
	centroids := seedPlusPlus(pts, k, rng)
	assign := make([]int, len(pts))
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for j, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centroids {
				if d := sqDist(p, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[j] != best {
				assign[j] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		sums := make([]Point, k)
		counts := make([]int, k)
		for j, p := range pts {
			c := assign[j]
			sums[c].X += p.X
			sums[c].Y += p.Y
			counts[c]++
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point so k
				// clusters survive degenerate configurations.
				centroids[c] = pts[rng.Intn(len(pts))]
				continue
			}
			centroids[c] = Point{sums[c].X / float64(counts[c]), sums[c].Y / float64(counts[c])}
		}
	}
	return Result{Centroids: centroids, Assign: assign}
}

// seedPlusPlus chooses k starting centroids with the k-means++ rule:
// the first uniformly, each subsequent one with probability proportional
// to its squared distance from the nearest chosen centroid.
func seedPlusPlus(pts []Point, k int, rng *rand.Rand) []Point {
	centroids := make([]Point, 0, k)
	centroids = append(centroids, pts[rng.Intn(len(pts))])
	d2 := make([]float64, len(pts))
	for len(centroids) < k {
		var total float64
		for j, p := range pts {
			d2[j] = sqDist(p, centroids[0])
			for _, c := range centroids[1:] {
				if d := sqDist(p, c); d < d2[j] {
					d2[j] = d
				}
			}
			total += d2[j]
		}
		if total == 0 {
			// All points coincide with existing centroids; duplicate one.
			centroids = append(centroids, pts[rng.Intn(len(pts))])
			continue
		}
		r := rng.Float64() * total
		idx := len(pts) - 1
		for j := range pts {
			r -= d2[j]
			if r <= 0 {
				idx = j
				break
			}
		}
		centroids = append(centroids, pts[idx])
	}
	return centroids
}
