package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Stddev-want) > 1e-9 {
		t.Fatalf("stddev = %v, want %v", s.Stddev, want)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Stddev != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.4, 2}, {0.5, 3}, {0.9, 5}, {1, 5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.q); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.99, 0},
		{"empty zero q", []float64{}, 0, 0},
		{"single low q", []float64{7}, 0, 7},
		{"single mid q", []float64{7}, 0.5, 7},
		{"single high q", []float64{7}, 1, 7},
		{"single NaN q", []float64{7}, math.NaN(), 7},
		{"NaN q clamps low", []float64{1, 2, 3}, math.NaN(), 1},
		{"negative q", []float64{1, 2, 3}, -0.5, 1},
		{"q above one", []float64{1, 2, 3}, 1.5, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Percentile(tt.xs, tt.q); got != tt.want {
				t.Fatalf("Percentile(%v, %v) = %v, want %v", tt.xs, tt.q, got, tt.want)
			}
		})
	}
}

func TestPercentilesMatchesPercentile(t *testing.T) {
	xs := []float64{9, 3, 1, 7, 5, 2, 8, 4, 6}
	qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
	got := Percentiles(xs, qs...)
	if len(got) != len(qs) {
		t.Fatalf("got %d results for %d quantiles", len(got), len(qs))
	}
	for i, q := range qs {
		if want := Percentile(xs, q); got[i] != want {
			t.Errorf("Percentiles[%v] = %v, want %v", q, got[i], want)
		}
	}
	if out := Percentiles(nil, 0.5, 0.99); out[0] != 0 || out[1] != 0 {
		t.Errorf("empty sample = %v, want zeros", out)
	}
	if out := Percentiles(xs); len(out) != 0 {
		t.Errorf("no quantiles = %v, want empty", out)
	}
}

func TestTruncNormalDuration(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		d := TruncNormalDuration(r, 100*time.Millisecond, 50*time.Millisecond, 0)
		if d < 0 {
			t.Fatal("truncated sample below floor")
		}
		sum += d
	}
	mean := sum / n
	// Truncation at 0 biases the mean slightly above 100ms.
	if mean < 95*time.Millisecond || mean > 115*time.Millisecond {
		t.Fatalf("mean %v out of expected range", mean)
	}
}

func TestTruncNormalDurationFloor(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		d := TruncNormalDuration(r, 10*time.Millisecond, 100*time.Millisecond, 5*time.Millisecond)
		if d < 5*time.Millisecond {
			t.Fatalf("sample %v below floor", d)
		}
	}
}
