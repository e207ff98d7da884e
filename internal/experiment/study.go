package experiment

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"aqua/internal/node"
	"aqua/internal/selection"
)

// A Study is a one-axis study around the Fig4 base: the paper's §7 sweeps
// and our ablations are the same run with one parameter varied per row.
type Study struct {
	ID    string
	title string // title line(s)
	// label heads the row-label column, and width pads it and every label.
	label  string
	width  int
	cols   column // optional columns the table prints
	points []studyPoint
}

// A studyPoint is one labelled row: set turns a copy of the base into the
// row's Fig4Config.
type studyPoint struct {
	label string
	set   func(cfg *Fig4Config)
}

func (st *Study) add(label string, set func(cfg *Fig4Config)) {
	st.points = append(st.points, studyPoint{label: label, set: set})
}

// StudyRow is one row of a study table: the measured client's run plus the
// two columns the run itself does not report.
type StudyRow struct {
	Label string
	Fig4Result
	LoadCV float64 // see cv
	// Overhead is the per-selection cost at the row's window size (Figure
	// 3's other axis), measured on the same synthetic setup as fig3; only
	// studies printing colOverhead measure it.
	Overhead time.Duration
}

// column is a set of optional study-table columns; reads, failureProb and
// avgSelected are always printed.
type column uint8

const (
	colFailures column = 1 << iota
	colLoadCV
	colMeanResp
	colOverhead
	colDone
)

// studyColumns is every study-table column in print order.
var studyColumns = []struct {
	opt   column // 0: always printed
	name  string
	width int
	cell  func(StudyRow) string
}{
	{0, "reads", 8, func(r StudyRow) string { return strconv.Itoa(r.Reads) }},
	{colFailures, "failures", 10, func(r StudyRow) string { return strconv.Itoa(r.TimingFailures) }},
	{0, "failureProb", 12, func(r StudyRow) string { return fmt.Sprintf("%.3f", r.FailureProb) }},
	{0, "avgSelected", 12, func(r StudyRow) string { return fmt.Sprintf("%.2f", r.AvgSelected) }},
	{colLoadCV, "loadCV", 10, func(r StudyRow) string { return fmt.Sprintf("%.2f", r.LoadCV) }},
	{colMeanResp, "meanResp(ms)", 14, func(r StudyRow) string {
		return fmt.Sprintf("%.1f", float64(r.MeanResponse.Microseconds())/1000)
	}},
	{colOverhead, "overhead(us)", 14, func(r StudyRow) string {
		return fmt.Sprintf("%.1f", float64(r.Overhead.Nanoseconds())/1e3)
	}},
	{colDone, "done", 8, func(r StudyRow) string { return strconv.FormatBool(r.Done) }},
}

// Studies lists the one-axis studies at aquabench's axes, in the order
// `aquabench -experiment all` prints them.
func Studies() []Study {
	return []Study{
		luiStudy(time.Second, 2*time.Second, 4*time.Second, 8*time.Second),
		reqDelayStudy(250*time.Millisecond, 500*time.Millisecond, time.Second, 2*time.Second),
		baselinesStudy(),
		hotspotStudy(),
		failoverStudy("none", "p01", "sequencer", "publisher"),
		groupSplitStudy([2]int{2, 8}, [2]int{4, 6}, [2]int{6, 4}, [2]int{8, 2}),
		windowStudy(5, 10, 20, 40),
		estimatorStudy(),
		scalabilityStudy(2, 4, 8, 12, 16),
		lossStudy(0, 0.01, 0.05, 0.10),
	}
}

// RunStudy runs every point of st around base on the worker pool and
// returns the rows in point order.
func RunStudy(st Study, base Fig4Config) []StudyRow {
	return runPoints(st.points, func(p studyPoint) StudyRow {
		cfg := base
		p.set(&cfg)
		r := RunFig4Point(cfg)
		row := StudyRow{Label: p.label, Fig4Result: r, LoadCV: cv(r.Selections)}
		if st.cols&colOverhead != 0 {
			row.Overhead = RunFig3Point(10, cfg.WindowSize, 300, base.Seed).Overhead
		}
		return row
	})
}

// WriteStudyTable renders one study's rows.
func WriteStudyTable(w io.Writer, st Study, rows []StudyRow) {
	fmt.Fprintf(w, "%s\n\n%-*s", st.title, st.width, st.label)
	for _, c := range studyColumns {
		if c.opt == 0 || st.cols&c.opt != 0 {
			fmt.Fprintf(w, " %*s", c.width, c.name)
		}
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s", st.width, r.Label)
		for _, c := range studyColumns {
			if c.opt == 0 || st.cols&c.opt != 0 {
				fmt.Fprintf(w, " %*s", c.width, c.cell(r))
			}
		}
		fmt.Fprintln(w)
	}
}

// luiStudy reproduces the conclusions' "varying the lazy update interval"
// study at a fixed deadline.
func luiStudy(luis ...time.Duration) Study {
	st := Study{ID: "lui", title: "Extension (§7) — varying the lazy update interval (d=140ms, Pc=0.9)",
		label: "LUI", width: 14, cols: colMeanResp}
	for _, lui := range luis {
		st.add(lui.String(), func(cfg *Fig4Config) {
			cfg.LUI = lui
			cfg.Seed += int64(lui / time.Millisecond)
		})
	}
	return st
}

// reqDelayStudy reproduces the conclusions' "varying the request delay"
// study: faster clients mean higher update rates and staler secondaries.
func reqDelayStudy(delays ...time.Duration) Study {
	st := Study{ID: "reqdelay", title: "Extension (§7) — varying the request delay (d=140ms, Pc=0.9, LUI=2s)",
		label: "reqDelay", width: 14, cols: colMeanResp}
	for _, d := range delays {
		st.add(d.String(), func(cfg *Fig4Config) {
			cfg.RequestDelay = d
			cfg.Seed += int64(d / time.Millisecond)
		})
	}
	return st
}

// selectorStudy runs the base once per selector, for the measured client.
func selectorStudy(id, title string, selectors ...selection.Selector) Study {
	st := Study{ID: id, title: title, label: "selector", width: 12, cols: colFailures | colLoadCV | colMeanResp}
	for _, sel := range selectors {
		st.add(sel.Name(), func(cfg *Fig4Config) { cfg.Selector = sel })
	}
	return st
}

// baselinesStudy compares Algorithm 1 against the baseline selectors at one
// operating point (the middle of the Figure 4 deadline range).
func baselinesStudy() Study {
	st := selectorStudy("baselines", "Ablation — Algorithm 1 vs baseline selectors (d=140ms, Pc=0.9, LUI=2s)",
		selection.Algorithm1{}, selection.Stateless{}, selection.All{}, selection.Single{})
	// RandomK is stateful: each run gets its own, so parallel points share
	// no rand.
	st.add("randomk", func(cfg *Fig4Config) {
		cfg.Selector = &selection.RandomK{K: 3, Rand: rand.New(rand.NewSource(cfg.Seed + 77))}
	})
	return st
}

// hotspotStudy compares Algorithm 1's LRU (ert) ordering against the greedy
// best-CDF-first ablation: same stopping rule, no load spreading.
func hotspotStudy() Study {
	return selectorStudy("hotspot", "Ablation — anti-hot-spot (ert) ordering vs greedy best-CDF ordering",
		selection.Algorithm1{}, selection.CDFGreedy{})
}

// failoverStudy verifies the crash-tolerance claims: the selected sets (and
// the sequencer/publisher failover machinery) keep the observed failure
// probability within the client's spec when a replica crashes a third of
// the way into the run. "none" crashes nothing; "sequencer" and "publisher"
// name those roles.
func failoverStudy(crashes ...string) Study {
	st := Study{ID: "failover", title: "Failure injection — QoS under a mid-run crash",
		label: "crash", width: 12, cols: colFailures | colDone}
	for _, crash := range crashes {
		st.add(crash, func(cfg *Fig4Config) {
			if crash != "none" {
				// From the base as given, before RunFig4Point's defaults.
				runLen := time.Duration(cfg.Requests) * (cfg.RequestDelay + 300*time.Millisecond)
				cfg.Crash, cfg.CrashAt = crash, runLen/3
			}
		})
	}
	return st
}

// groupSplitStudy explores §3's tunability claim — "the size of these
// groups can be tuned to implement a range of consistency semantics" — by
// sweeping the {primaries, secondaries} split at a fixed total of serving
// replicas.
func groupSplitStudy(splits ...[2]int) Study {
	st := Study{ID: "groupsplit",
		title: "Two-level organization — primary/secondary split at 10 serving replicas\n" +
			"(d=140ms, Pc=0.9, LUI=2s; updates load every primary, reads spread wider)",
		label: fmt.Sprintf("%-10s %s", "primaries", "secondaries"), width: 23, cols: colMeanResp}
	for _, sp := range splits {
		st.add(fmt.Sprintf("%-10d %d", sp[0], sp[1]), func(cfg *Fig4Config) {
			cfg.Primaries, cfg.Secondaries = sp[0], sp[1]
			cfg.Seed += int64(sp[0]*100 + sp[1])
		})
	}
	return st
}

// windowStudy studies the window-size trade-off the paper describes in §5.2
// ("include a reasonable number of recently measured values, while
// eliminating obsolete measurements"): prediction quality (failure rate)
// versus selection overhead.
func windowStudy(windows ...int) Study {
	st := Study{ID: "window", title: "Sliding-window size — prediction quality vs selection overhead",
		label: "window", width: 8, cols: colMeanResp | colOverhead}
	for _, wsize := range windows {
		st.add(strconv.Itoa(wsize), func(cfg *Fig4Config) {
			cfg.WindowSize = wsize
			cfg.Seed += int64(wsize)
		})
	}
	return st
}

// estimatorStudy compares the paper's pure-Poisson staleness factor
// (Equation 4) against the n_L-anchored counted estimator.
func estimatorStudy() Study {
	st := Study{ID: "estimator", title: "Staleness estimator — Equation 4 vs n_L-anchored variant",
		label: "estimator", width: 14, cols: colMeanResp}
	for _, counted := range []bool{false, true} {
		label := "poisson(eq4)"
		if counted {
			label = "counted(nL)"
		}
		st.add(label, func(cfg *Fig4Config) {
			// Stress staleness: long lazy interval, fast clients (high λu)
			// so the estimators actually diverge.
			cfg.LUI = 4 * time.Second
			cfg.RequestDelay = 250 * time.Millisecond
			cfg.CountedEstimator = counted
		})
	}
	return st
}

// scalabilityStudy quantifies §5's scalability argument — "allocating all
// the available replicas to service a single client ... is not scalable, as
// it increases the load on all the replicas and results in higher response
// times for the remaining clients" — by growing the number of concurrent
// clients and comparing Algorithm 1 against the select-all baseline, applied
// to every client.
func scalabilityStudy(clientCounts ...int) Study {
	st := Study{ID: "scalability",
		title: "Scalability — measured client vs growing client population\n" +
			"(Algorithm 1 keeps per-request load bounded; select-all floods every replica)",
		label: fmt.Sprintf("%-12s %8s", "selector", "clients"), width: 21, cols: colMeanResp}
	// Clamp to the two mandatory clients and dedupe before deriving seeds:
	// clamping per point would alias e.g. counts 1 and 2 onto the same seed
	// (and an identical run), silently double-counting one point.
	var counts []int
	for _, n := range clientCounts {
		if n = max(n, 2); !slices.Contains(counts, n) {
			counts = append(counts, n)
		}
	}
	for _, sel := range []selection.Selector{selection.Algorithm1{}, selection.All{}} {
		for _, n := range counts {
			st.add(fmt.Sprintf("%-12s %8d", sel.Name(), n), func(cfg *Fig4Config) {
				cfg.Requests = min(cfg.Requests, 300) // N clients × N requests grows fast
				cfg.Selector, cfg.SelectorForAll = sel, true
				cfg.ExtraClients = n - 2
				cfg.Seed += int64(n * 10)
			})
		}
	}
	return st
}

// lossStudy subjects the whole deployment to uniform message loss: the
// substrate's ack/retransmit recovery (the role Ensemble's reliable channels
// play in the paper) must keep the protocol correct, trading latency for
// delivery.
func lossStudy(rates ...float64) Study {
	st := Study{ID: "loss", title: "Message loss — QoS under uniform network loss (substrate ARQ recovery)",
		label: "loss", width: 8, cols: colMeanResp | colDone}
	for _, p := range rates {
		st.add(fmt.Sprintf("%.2f", p), func(cfg *Fig4Config) {
			cfg.Loss = p
			cfg.Seed += int64(p * 10000)
		})
	}
	return st
}

// cv is the coefficient of variation of per-replica selection counts: 0
// means perfectly balanced load, larger means hotter spots.
func cv(selections map[node.ID]int) float64 {
	if len(selections) == 0 {
		return 0
	}
	var sum float64
	for _, x := range selections {
		sum += float64(x)
	}
	mean := sum / float64(len(selections))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range selections {
		d := float64(x) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(selections))) / mean
}
