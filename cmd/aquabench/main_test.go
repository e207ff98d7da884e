package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A chaos sweep of no runs checks nothing, so a run count below one must be
// an error — not an empty sweep that exits 0, nor a makeslice panic.
func TestChaosRunsRejectsNonPositive(t *testing.T) {
	for _, runs := range []int{0, -3} {
		if err := run("chaos", 60, 2002, 1, "", "", "crash", runs); err == nil {
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
		if err := run(tc.which, tc.requests, 2002, tc.iters, "", "", "crash", 1); err == nil {
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

// Every "-experiment <id>" the user-facing docs show must still run: a
// retired id left in a quickstart line fails at the first copy-paste. An
// id list like "fig3|fig4a" is checked id by id.
func TestDocsNameOnlyLiveExperiments(t *testing.T) {
	ids := experimentIDs()
	use := regexp.MustCompile(`-experiment[ =]([a-z0-9|]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md"} {
		src, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range use.FindAllStringSubmatch(line, -1) {
				for _, id := range strings.Split(m[1], "|") {
					if id != "" && !slices.Contains(ids, id) {
						t.Errorf("%s:%d names -experiment %s, which aquabench does not run", doc, i+1, id)
					}
				}
			}
		}
	}
}
