package aqua_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesGolden pins the simulator examples' stdout byte for byte.
// Each runs on the deterministic simulator, so any change to selection,
// ordering or the snapshots secondaries restore (docshare and stockticker
// restore document and ticker snapshots) shows up as a diff against
// testdata/examples/<name>.golden. quickstart runs live TCP and is left to
// scripts/smoke-binaries.sh.
func TestExamplesGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, name := range []string{"docshare", "failover", "ordering", "priority", "stockticker"} {
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
