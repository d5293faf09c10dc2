package kmeans

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts []Point
	// Two tight blobs far apart.
	for i := 0; i < 20; i++ {
		pts = append(pts, Point{rng.Float64(), rng.Float64()})
	}
	for i := 0; i < 20; i++ {
		pts = append(pts, Point{100 + rng.Float64(), 100 + rng.Float64()})
	}
	res := KMeans(pts, 2, 100, rng)
	if len(res.Centroids) != 2 {
		t.Fatalf("want 2 centroids, got %d", len(res.Centroids))
	}
	// All points in the first blob must share a cluster, likewise the second,
	// and the two clusters must differ.
	c0 := res.Assign[0]
	for i := 1; i < 20; i++ {
		if res.Assign[i] != c0 {
			t.Fatalf("blob 0 split across clusters: %v", res.Assign[:20])
		}
	}
	c1 := res.Assign[20]
	for i := 21; i < 40; i++ {
		if res.Assign[i] != c1 {
			t.Fatalf("blob 1 split across clusters")
		}
	}
	if c0 == c1 {
		t.Fatal("blobs assigned to same cluster")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if res := KMeans(nil, 3, 10, rng); len(res.Centroids) != 0 {
		t.Error("empty input should yield empty result")
	}
	if res := KMeans([]Point{{1, 1}}, 0, 10, rng); len(res.Centroids) != 1 {
		t.Error("k clamped up to 1")
	}
	pts := []Point{{0, 0}, {1, 1}}
	if res := KMeans(pts, 5, 10, rng); len(res.Centroids) != 2 {
		t.Error("k clamped down to len(pts)")
	}
	if res := KMeans(pts, 2, 10, nil); len(res.Centroids) != 0 {
		t.Error("nil rng should yield empty result")
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{5, 5}
	}
	res := KMeans(pts, 3, 20, rng)
	if len(res.Centroids) != 3 {
		t.Fatalf("want 3 centroids even for degenerate data, got %d", len(res.Centroids))
	}
	for _, c := range res.Centroids {
		if c != (Point{5, 5}) {
			t.Errorf("centroid %v should coincide with data", c)
		}
	}
}

func TestKMeansAssignmentsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		k := 1 + rng.Intn(6)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 50, rng.Float64() * 50}
		}
		res := KMeans(pts, k, 30, rng)
		if len(res.Assign) != n {
			return false
		}
		for _, a := range res.Assign {
			if a < 0 || a >= len(res.Centroids) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInertiaDecreasesWithMoreClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	i1 := inertia(pts, KMeans(pts, 1, 50, rand.New(rand.NewSource(5))))
	i8 := inertia(pts, KMeans(pts, 8, 50, rand.New(rand.NewSource(5))))
	if i8 >= i1 {
		t.Errorf("inertia should shrink with more clusters: k=1 %v, k=8 %v", i1, i8)
	}
}

// inertia is the measuring stick for KMeans: the total within-cluster
// squared distance of a result over the original points.
func inertia(pts []Point, res Result) float64 {
	var s float64
	for j, p := range pts {
		s += sqDist(p, res.Centroids[res.Assign[j]])
	}
	return s
}
