package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Errorf("r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Errorf("constant series: r=%v err=%v, want 0,nil", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1}); err != ErrInsufficientData {
		t.Error("short input should return ErrInsufficientData")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err != ErrInsufficientData {
		t.Error("mismatched input should return ErrInsufficientData")
	}
}

func TestPearsonBounded(t *testing.T) {
	// Property: |r| <= 1 for arbitrary data.
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		n := 3 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		return err == nil && r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestSplitRNGIndependence(t *testing.T) {
	a := SplitRNG(7, 0)
	b := SplitRNG(7, 1)
	collisions := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			collisions++
		}
	}
	if collisions > 2 {
		t.Errorf("streams 0 and 1 collide %d/64 times", collisions)
	}
	// Same stream index reproduces.
	x := SplitRNG(7, 3).Int63()
	y := SplitRNG(7, 3).Int63()
	if x != y {
		t.Error("SplitRNG must be deterministic per (seed, stream)")
	}
}
