package main

import (
	"reflect"
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
	for _, which := range []string{"chaos", "shardchaos"} {
		for _, runs := range []int{0, -3} {
			if err := run(which, 60, 2002, 1, "", "", "crash", runs, "", false, ""); err == nil {
				t.Errorf("-experiment %s -chaos-runs %d accepted", which, runs)
			}
		}
	}
}
