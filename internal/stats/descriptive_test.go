package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Fatalf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVarianceAndCoV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := CoV(xs); !almostEqual(got, 0.4, 1e-12) {
		t.Fatalf("CoV = %v, want 0.4", got)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("variance of <2 samples should be 0")
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Fatal("CoV with zero mean should be 0")
	}
}

func TestExponentialCoVIsOne(t *testing.T) {
	// The paper reminds readers that an exponential distribution has CoV 1;
	// check our estimator against a large exponential sample.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 0.1
	}
	if got := CoV(xs); !almostEqual(got, 1, 0.02) {
		t.Fatalf("CoV of exponential sample = %v, want ~1", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || !almostEqual(s.Mean, 2, 1e-12) {
		t.Fatalf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("Summarize(nil) = %+v", z)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("Quantile: %v", err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 3, 1e-12) {
		t.Fatalf("Quantile = %v, want 3", got)
	}
}

// TestCDF checks NewCDF sorts a copy of its sample: ties keep their own
// points and the caller's slice is left as it was.
func TestCDF(t *testing.T) {
	in := []float64{3, 2, 1, 2}
	xs, ps := NewCDF(in).Points(4)
	wantX := []float64{1, 2, 2, 3}
	wantP := []float64{0.25, 0.5, 0.75, 1}
	for i := range wantX {
		if xs[i] != wantX[i] || !almostEqual(ps[i], wantP[i], 1e-12) {
			t.Fatalf("Points = %v, %v; want %v, %v", xs, ps, wantX, wantP)
		}
	}
	if in[0] != 3 || in[3] != 2 {
		t.Fatalf("NewCDF reordered its input: %v", in)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("Points lengths %d %d", len(xs), len(ps))
	}
	if xs[0] != 1 || xs[4] != 10 {
		t.Fatalf("Points span = %v", xs)
	}
	if ps[4] != 1 {
		t.Fatalf("last p = %v, want 1", ps[4])
	}
	if x, p := c.Points(0); x != nil || p != nil {
		t.Fatal("Points(0) should be nil")
	}
	empty := NewCDF(nil)
	if x, _ := empty.Points(3); x != nil {
		t.Fatal("empty CDF Points should be nil")
	}
}

// Property: the points of a CDF are non-decreasing in both x and P.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		px, pp := NewCDF(xs).Points(25)
		for i := 1; i < len(px); i++ {
			if px[i] < px[i-1] || pp[i] < pp[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v, err := Quantile(xs, q)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
