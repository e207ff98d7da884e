package aqua_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets keeps the benchmark's build inside tier-1. bench/ is
// its own module (replace aqua => ../), so `go test ./...` never compiles
// it, yet it implements or calls this module's seams by hand (wal.Media,
// wal.Store.Stats, replica.Gateway.DurableStore, ...): changing one of them
// breaks the benchmark's build, which otherwise surfaces only as a rejected
// PR. The environment is bench/run.sh's: no module downloads, no workspace.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", "-C", "bench", "./...")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
