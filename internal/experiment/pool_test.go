package experiment

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPointsPreservesInputOrder(t *testing.T) {
	points := make([]int, 37)
	for i := range points {
		points[i] = i
	}
	got := RunPoints(points, 4, nil, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunPointsProgressCountsEveryPoint(t *testing.T) {
	var calls, last atomic.Int64
	RunPoints(make([]struct{}, 9), 3, func(done, total int) {
		calls.Add(1)
		last.Store(int64(done))
		if total != 9 {
			t.Errorf("total = %d, want 9", total)
		}
	}, func(struct{}) struct{} { return struct{}{} })
	if calls.Load() != 9 || last.Load() != 9 {
		t.Fatalf("progress calls=%d last done=%d, want 9/9", calls.Load(), last.Load())
	}
}

func TestRunPointsEmptyAndDefaults(t *testing.T) {
	if got := RunPoints(nil, 0, nil, func(int) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty input gave %d results", len(got))
	}
	// parallel <= 0 selects GOMAXPROCS; must still cover every point.
	got := RunPoints([]int{1, 2, 3}, -1, nil, func(i int) int { return i })
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

// TestFig4SweepParallelismInvariant is the engine's core guarantee: the
// rendered Figure 4 tables are byte-identical whether the sweep runs
// sequentially or fanned across workers, because every point owns a private
// scheduler seeded only by its config. Run under -race in CI, it also
// checks the share-nothing claim.
func TestFig4SweepParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep grid in -short mode")
	}
	sw := DefaultFig4Sweep()
	sw.Base = Fig4Config{Seed: 2002, Requests: 30}
	// Shrink the grid: two deadlines x two series is enough to cross worker
	// boundaries while keeping the test fast.
	sw.Deadlines = sw.Deadlines[:2]
	sw.Configs = sw.Configs[:2]

	render := func(results []Fig4Result) []byte {
		var buf bytes.Buffer
		WriteFig4aTable(&buf, results)
		WriteFig4bTable(&buf, results)
		return buf.Bytes()
	}

	defer SetParallelism(1)
	var want []byte
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		SetParallelism(par)
		got := render(sw.Run())
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("parallelism %d changed the rendered tables:\n--- sequential ---\n%s--- parallel=%d ---\n%s",
				par, want, par, got)
		}
	}
}

func TestRunScalabilityClampsAndDedupesCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	base := Fig4Config{Seed: 7, Requests: 10, Deadline: 140 * time.Millisecond, MinProb: 0.9}
	// 0, 1, and 2 all clamp to the two mandatory clients; each selector must
	// run that point once, not three times.
	res := RunStudy(scalabilityStudy(0, 1, 2, 4), base)
	if len(res) != 4 { // 2 selectors x {2, 4}
		t.Fatalf("got %d results, want 4: %+v", len(res), res)
	}
	for i, want := range []string{"2", "4", "2", "4"} {
		if f := strings.Fields(res[i].Label); f[len(f)-1] != want {
			t.Fatalf("res[%d] clients = %q, want %s", i, res[i].Label, want)
		}
	}
}
