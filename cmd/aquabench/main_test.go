package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// parseShards must hand the ramp ascending, distinct counts: speedups are
// relative to the first mode, and a repeated count would rerun its ladder.
func TestParseShards(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []int
		err  bool
	}{
		{spec: "", want: nil},
		{spec: "1,2,4", want: []int{1, 2, 4}},
		{spec: "4,1", want: []int{1, 4}},
		{spec: " 4, 2 ,1", want: []int{1, 2, 4}},
		{spec: "1,1", err: true},
		{spec: "4,1,4", err: true},
		{spec: "0", err: true},
		{spec: "x", err: true},
	} {
		got, err := parseShards(tc.spec)
		if (err != nil) != tc.err {
			t.Fatalf("parseShards(%q) error = %v, want error %v", tc.spec, err, tc.err)
		}
		if !tc.err && !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("parseShards(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

// A chaos sweep of no runs checks nothing, so a run count below one must be
// an error — not an empty sweep that exits 0, nor a makeslice panic.
func TestChaosRunsRejectsNonPositive(t *testing.T) {
	for _, runs := range []int{0, -3} {
		if err := run("chaos", 60, 2002, 1, "", "", "crash", runs, "", false, ""); err == nil {
			t.Errorf("-experiment chaos -chaos-runs %d accepted", runs)
		}
	}
}

// A count below one measures nothing: -iters 0 used to divide by zero in
// fig3, -requests 0 silently ran the 1000-request default, and a negative
// -requests passed a chaos audit that issued no request.
func TestRunRejectsNonPositiveCounts(t *testing.T) {
	for _, tc := range []struct {
		which           string
		requests, iters int
	}{
		{"fig3", 60, 0},
		{"fig3", 60, -1},
		{"loss", 0, 1},
		{"chaos", -3, 1},
	} {
		if err := run(tc.which, tc.requests, 2002, tc.iters, "", "", "crash", 1, "", true, ""); err == nil {
			t.Errorf("-experiment %s -requests %d -iters %d accepted", tc.which, tc.requests, tc.iters)
		}
	}
}

// The package doc names every -experiment id, the studies' read from the
// one study list, so the doc cannot drift from it.
func TestDocListsEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "package main")
	for _, id := range experimentIDs() {
		if !strings.Contains(doc, id) {
			t.Errorf("package doc does not name -experiment %s", id)
		}
	}
}
