package qos

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{"valid", Spec{Staleness: 2, Deadline: 200 * time.Millisecond, MinProb: 0.9}, false},
		{"zero staleness ok", Spec{Staleness: 0, Deadline: time.Second, MinProb: 0.5}, false},
		{"negative staleness", Spec{Staleness: -1, Deadline: time.Second, MinProb: 0.5}, true},
		{"zero deadline", Spec{Staleness: 1, Deadline: 0, MinProb: 0.5}, true},
		{"prob too high", Spec{Staleness: 1, Deadline: time.Second, MinProb: 1.5}, true},
		{"prob negative", Spec{Staleness: 1, Deadline: time.Second, MinProb: -0.1}, true},
		{"prob NaN", Spec{Staleness: 1, Deadline: time.Second, MinProb: math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.spec.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Staleness: 5, Deadline: 2 * time.Second, MinProb: 0.7}
	got := s.String()
	if !strings.Contains(got, "5") || !strings.Contains(got, "2s") || !strings.Contains(got, "0.70") {
		t.Fatalf("String() = %q", got)
	}
}

func TestMethodsRegistry(t *testing.T) {
	m := NewMethods("Read", "Get")
	if !m.IsReadOnly("Read") || !m.IsReadOnly("Get") {
		t.Fatal("registered methods not read-only")
	}
	if m.IsReadOnly("Write") {
		t.Fatal("unregistered method treated as read-only")
	}
	var nilM *Methods
	if nilM.IsReadOnly("Read") {
		t.Fatal("nil registry must treat everything as update")
	}
}

func TestFailureDetectorCountsAndRate(t *testing.T) {
	spec := Spec{Staleness: 1, Deadline: 100 * time.Millisecond, MinProb: 0.5}
	f := NewFailureDetector(spec, nil)
	if f.FailureRate() != 0 {
		t.Fatal("rate before any record should be 0")
	}
	if miss := f.Record(50 * time.Millisecond); miss {
		t.Fatal("on-time response flagged as miss")
	}
	if miss := f.Record(150 * time.Millisecond); !miss {
		t.Fatal("late response not flagged")
	}
	if f.Total() != 2 || f.Failures() != 1 || f.FailureRate() != 0.5 {
		t.Fatalf("counters = %d/%d rate %v", f.Failures(), f.Total(), f.FailureRate())
	}
}

func TestFailureDetectorExactDeadlineIsOnTime(t *testing.T) {
	f := NewFailureDetector(Spec{Deadline: 100 * time.Millisecond, MinProb: 0.9}, nil)
	if f.Record(100 * time.Millisecond) {
		t.Fatal("response exactly at deadline must not be a timing failure")
	}
}

func TestFailureDetectorBreachCallback(t *testing.T) {
	var breaches []float64
	spec := Spec{Deadline: 100 * time.Millisecond, MinProb: 0.8}
	f := NewFailureDetector(spec, func(rate float64) { breaches = append(breaches, rate) })

	// Three on-time, then misses until the observed failure rate exceeds
	// 1 - 0.8 = 0.2.
	for i := 0; i < 3; i++ {
		f.Record(10 * time.Millisecond)
	}
	f.Record(200 * time.Millisecond) // 1/4 = 0.25 > 0.2 → breach
	if len(breaches) != 1 {
		t.Fatalf("breach callbacks = %d, want 1", len(breaches))
	}
	if breaches[0] != 0.25 {
		t.Fatalf("breach rate = %v, want 0.25", breaches[0])
	}
	// Further misses do not re-fire the callback.
	f.Record(200 * time.Millisecond)
	if len(breaches) != 1 {
		t.Fatal("breach callback fired twice")
	}
}

func TestFailureDetectorNoBreachWhenWithinSpec(t *testing.T) {
	fired := false
	spec := Spec{Deadline: 100 * time.Millisecond, MinProb: 0.5}
	f := NewFailureDetector(spec, func(float64) { fired = true })
	for i := 0; i < 10; i++ {
		f.Record(10 * time.Millisecond)
	}
	f.Record(500 * time.Millisecond) // 1/11 < 0.5
	if fired {
		t.Fatal("breach callback fired within spec")
	}
}
