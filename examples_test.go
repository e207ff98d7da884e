package aqua_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExamplesGolden pins the simulator examples' stdout byte for byte.
// Each runs on the deterministic simulator, so any change to selection,
// ordering or the snapshots secondaries restore (docshare and stockticker
// restore document and ticker snapshots) shows up as a diff against
// testdata/examples/<name>.golden. The list comes from the tree: every
// examples/<name> directory must have a golden and every golden must name
// an example, except quickstart, which runs live TCP and is left to
// scripts/smoke-binaries.sh.
func TestExamplesGolden(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range dirs {
		if d.IsDir() && d.Name() != "quickstart" {
			names = append(names, d.Name())
		}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "examples", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned []string
	for _, g := range goldens {
		pinned = append(pinned, strings.TrimSuffix(filepath.Base(g), ".golden"))
	}
	slices.Sort(pinned)
	if !slices.Equal(names, pinned) {
		t.Fatalf("examples %v and testdata/examples goldens %v differ: every example but quickstart needs a golden, and every golden an example", names, pinned)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(goTool, "run", "./examples/"+name)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from testdata/examples/%s.golden:\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
