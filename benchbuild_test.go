package aqua_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModuleVets keeps the benchmark's build and smoke run inside
// tier-1. bench/ is its own module (replace aqua => ../), so `go test ./...`
// never compiles it, yet it implements or calls this module's seams by hand
// (wal.Media, wal.Store.Stats, replica.Gateway.DurableStore, ...): changing
// one of them breaks the benchmark's build or run, which otherwise surfaces
// only as a rejected PR. The environment is bench/run.sh's: no module
// downloads, no workspace. The smoke run (about 10 s on two cores) is
// skipped under -short; the vet always runs.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	goCmd := func(args ...string) {
		t.Helper()
		cmd := exec.Command(goTool, args...)
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off", "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	goCmd("vet", "-C", "bench", "./...")
	if testing.Short() {
		return
	}
	goCmd("test", "-C", "bench", "-count=1", "./...")
}
