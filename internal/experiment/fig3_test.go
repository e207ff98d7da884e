package experiment

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/repository"
	"aqua/internal/selection"
)

func TestSeedRepositoryShapes(t *testing.T) {
	repo := repository.New(10)
	rng := rand.New(rand.NewSource(1))
	now := time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)
	prim, sec := SeedRepository(repo, 7, 10, rng, now)
	if len(prim) != 3 || len(sec) != 4 {
		t.Fatalf("split = %d/%d, want 3/4", len(prim), len(sec))
	}
	for _, id := range append(append([]node.ID{}, prim...), sec...) {
		if !repo.HasHistory(id) {
			t.Fatalf("%s has no history", id)
		}
	}
	if repo.UpdateRate() <= 0 || !repo.HasPublisherInfo() {
		t.Fatal("publisher info not seeded")
	}
	// The seeded model must produce meaningful CDFs at a realistic deadline.
	m := selection.Model{BinWidth: 2 * time.Millisecond, LazyInterval: 4 * time.Second}
	spec := qos.Spec{Staleness: 2, Deadline: 200 * time.Millisecond, MinProb: 0.9}
	in := m.Evaluate(repo, prim, sec, "seq", spec, now)
	any := false
	for _, c := range in.Candidates {
		if c.ImmedCDF > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("seeded repository gives all-zero CDFs")
	}
}

func TestRunFig3PointMeasuresSomething(t *testing.T) {
	p := RunFig3Point(6, 10, 50, 1)
	if p.Replicas != 6 || p.Window != 10 {
		t.Fatalf("point = %+v", p)
	}
	if p.Overhead <= 0 {
		t.Fatal("zero overhead measured")
	}
	if p.ModelShare <= 0 || p.ModelShare > 1 {
		t.Fatalf("model share = %v", p.ModelShare)
	}
}

func TestRunFig3GridSize(t *testing.T) {
	points := RunFig3([]int{2, 4}, []int{10, 20}, 10, 1)
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
}

func TestFig3OverheadGrowsWithWindow(t *testing.T) {
	// The paper's observation: bigger windows cost more (more data points
	// in the convolution). Wall-clock timings share the host with other
	// test processes, so compare the fastest of a few interleaved runs:
	// preemption only ever adds time.
	small, large := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 5; i++ {
		small = min(small, RunFig3Point(8, 5, 200, 1).Overhead)
		large = min(large, RunFig3Point(8, 20, 200, 1).Overhead)
	}
	if large <= small {
		t.Fatalf("window 20 (%v) not costlier than window 5 (%v)", large, small)
	}
}

func TestDefaults(t *testing.T) {
	if got := DefaultFig3ReplicaCounts(); len(got) != 9 || got[0] != 2 || got[8] != 10 {
		t.Fatalf("replica counts = %v", got)
	}
	if got := DefaultFig3Windows(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("windows = %v", got)
	}
}

func TestWriteTables(t *testing.T) {
	var sb strings.Builder
	WriteFig3Table(&sb, []Fig3Point{{Replicas: 2, Window: 10, Overhead: 500 * time.Microsecond, ModelShare: 0.9}})
	if !strings.Contains(sb.String(), "500.0") || !strings.Contains(sb.String(), "90%") {
		t.Fatalf("fig3 table:\n%s", sb.String())
	}

	results := []Fig4Result{
		{Deadline: 100 * time.Millisecond, MinProb: 0.9, LUI: 2 * time.Second, AvgSelected: 4.5, FailureProb: 0.05},
		{Deadline: 200 * time.Millisecond, MinProb: 0.9, LUI: 2 * time.Second, AvgSelected: 2.5, FailureProb: 0.01},
	}
	sb.Reset()
	WriteFig4aTable(&sb, results)
	out := sb.String()
	if !strings.Contains(out, "p=0.9,LUI=2s") || !strings.Contains(out, "4.50") {
		t.Fatalf("fig4a table:\n%s", out)
	}
	sb.Reset()
	WriteFig4bTable(&sb, results)
	if !strings.Contains(sb.String(), "0.050") {
		t.Fatalf("fig4b table:\n%s", sb.String())
	}

	sb.Reset()
	WriteStudyTable(&sb, baselinesStudy(), []StudyRow{{
		Label:      "algorithm1",
		Fig4Result: Fig4Result{Reads: 10, TimingFailures: 1, FailureProb: 0.1, AvgSelected: 3},
		LoadCV:     0.5,
	}})
	if want := "algorithm1         10          1        0.100         3.00       0.50            0.0\n"; !strings.HasSuffix(sb.String(), want) {
		t.Fatalf("selector table:\n%s", sb.String())
	}

	sb.Reset()
	WriteStudyTable(&sb, failoverStudy(), []StudyRow{{Label: "sequencer", Fig4Result: Fig4Result{Done: true}}})
	if !strings.Contains(sb.String(), "sequencer") || !strings.Contains(sb.String(), "true") {
		t.Fatalf("failover table:\n%s", sb.String())
	}

	sb.Reset()
	WriteStudyTable(&sb, luiStudy(), []StudyRow{{Label: time.Second.String(), Fig4Result: Fig4Result{Reads: 5}}})
	if !strings.Contains(sb.String(), "1s") {
		t.Fatalf("sweep table:\n%s", sb.String())
	}
}

func TestCV(t *testing.T) {
	if got := cv(nil); got != 0 {
		t.Fatalf("cv(nil) = %v", got)
	}
	if got := cv(map[node.ID]int{"a": 5, "b": 5, "c": 5}); got != 0 {
		t.Fatalf("cv(const) = %v", got)
	}
	if got := cv(map[node.ID]int{"a": 0, "b": 0}); got != 0 {
		t.Fatalf("cv(zeros) = %v", got)
	}
	if got := cv(map[node.ID]int{"a": 0, "b": 10}); got <= 0.9 {
		t.Fatalf("cv(imbalanced) = %v, want ~1", got)
	}
}
