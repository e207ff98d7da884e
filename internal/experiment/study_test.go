package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func ablationBase() Fig4Config {
	return Fig4Config{
		Seed:         9,
		Deadline:     160 * time.Millisecond,
		MinProb:      0.9,
		LUI:          2 * time.Second,
		Requests:     40,
		RequestDelay: 150 * time.Millisecond,
	}
}

// TestFig4StudiesGolden renders every study and the calibration table at
// aquabench's base and axes (40 requests) and compares them, byte for byte,
// with testdata/studies.golden, recorded while each study still had its own
// runner, result type and table writer. The window study's overhead is wall
// clock, so it is zeroed before rendering.
func TestFig4StudiesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every study in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "studies.golden"))
	if err != nil {
		t.Fatal(err)
	}
	base := Fig4Config{
		Seed:     2002,
		Deadline: 140 * time.Millisecond,
		MinProb:  0.9,
		LUI:      2 * time.Second,
		Requests: 40,
	}
	defer SetParallelism(1)
	SetParallelism(2)
	var got bytes.Buffer
	for _, st := range Studies() {
		rows := RunStudy(st, base)
		for i := range rows {
			rows[i].Overhead = 0
		}
		WriteStudyTable(&got, st, rows)
		fmt.Fprintln(&got)
	}
	WriteCalibrationTable(&got, RunCalibration(base, 10))
	fmt.Fprintln(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("study tables diverged from the golden:\n--- golden ---\n%s\n--- got ---\n%s", want, got.Bytes())
	}
}

func TestRunBaselinesCoversAllSelectors(t *testing.T) {
	res := RunStudy(baselinesStudy(), ablationBase())
	if len(res) != 5 {
		t.Fatalf("rows = %d", len(res))
	}
	names := map[string]bool{}
	for _, r := range res {
		names[r.Label] = true
		if !r.Done {
			t.Fatalf("%s run did not complete", r.Label)
		}
	}
	for _, want := range []string{"algorithm1", "stateless", "all", "single", "randomk"} {
		if !names[want] {
			t.Fatalf("missing selector %s", want)
		}
	}
	// All selects everything; Single selects one.
	for _, r := range res {
		switch r.Label {
		case "all":
			if r.AvgSelected != 10 {
				t.Fatalf("all avg selected = %v", r.AvgSelected)
			}
		case "single":
			if r.AvgSelected != 1 {
				t.Fatalf("single avg selected = %v", r.AvgSelected)
			}
		}
	}
}

func TestRunHotspotPair(t *testing.T) {
	res := RunStudy(hotspotStudy(), ablationBase())
	if len(res) != 2 || res[0].Label != "algorithm1" || res[1].Label != "cdfgreedy" {
		t.Fatalf("rows = %+v", res)
	}
}

func TestRunFailoverScenarios(t *testing.T) {
	base := ablationBase()
	res := RunStudy(failoverStudy("none", "p01", "sequencer", "publisher"), base)
	if len(res) != 4 {
		t.Fatalf("rows = %d", len(res))
	}
	for _, r := range res {
		if !r.Done {
			t.Fatalf("crash=%s run did not complete its workload", r.Label)
		}
		// The dependability claim: QoS held despite the crash (generous
		// slack for the small sample).
		if r.FailureProb > (1-base.MinProb)+0.15 {
			t.Fatalf("crash=%s failure prob %.3f grossly out of spec", r.Label, r.FailureProb)
		}
	}
}

func TestRunLUISweepShape(t *testing.T) {
	res := RunStudy(luiStudy(500*time.Millisecond, 4*time.Second), ablationBase())
	if len(res) != 2 {
		t.Fatalf("rows = %d", len(res))
	}
	// Figure 4a's LUI effect: a longer lazy interval means staler
	// secondaries, so more replicas are needed.
	if res[1].AvgSelected <= res[0].AvgSelected {
		t.Fatalf("LUI 4s selected %.2f <= LUI 0.5s %.2f", res[1].AvgSelected, res[0].AvgSelected)
	}
}

func TestRunRequestDelaySweep(t *testing.T) {
	res := RunStudy(reqDelayStudy(100*time.Millisecond, time.Second), ablationBase())
	if len(res) != 2 {
		t.Fatalf("rows = %d", len(res))
	}
	for i, r := range res {
		if r.Reads == 0 {
			t.Fatalf("row %d has no reads", i)
		}
	}
}

// headerOf returns the column-header line of a rendered study table: the
// first line after the title's blank line.
func headerOf(table string) string {
	_, rest, _ := strings.Cut(table, "\n\n")
	header, _, _ := strings.Cut(rest, "\n")
	return header
}
