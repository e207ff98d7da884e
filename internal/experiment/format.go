package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// WriteFig3Table renders the Figure 3 reproduction: selection overhead (µs)
// vs available replicas, one column group per window size.
func WriteFig3Table(w io.Writer, points []Fig3Point) {
	fmt.Fprintln(w, "Figure 3 — Overhead of the probabilistic selection algorithm")
	fmt.Fprintln(w, "(microseconds per selection; ModelShare = fraction spent computing")
	fmt.Fprintln(w, " response-time distributions; paper reports ~90%)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %-8s %14s %12s\n", "replicas", "window", "overhead(us)", "model-share")
	for _, p := range points {
		fmt.Fprintf(w, "%-10d %-8d %14.1f %11.0f%%\n",
			p.Replicas, p.Window, float64(p.Overhead.Nanoseconds())/1e3, p.ModelShare*100)
	}
}

// WriteFig4aTable renders Figure 4a: average number of replicas selected vs
// deadline, one series per (probability, LUI).
func WriteFig4aTable(w io.Writer, results []Fig4Result) {
	fmt.Fprintln(w, "Figure 4a — Average number of replicas selected")
	fmt.Fprintln(w)
	writeFig4Grid(w, results, func(r Fig4Result) string {
		return fmt.Sprintf("%6.2f", r.AvgSelected)
	})
}

// WriteFig4bTable renders Figure 4b: observed probability of timing failure
// vs deadline with 95% binomial confidence intervals.
func WriteFig4bTable(w io.Writer, results []Fig4Result) {
	fmt.Fprintln(w, "Figure 4b — Observed probability of timing failure (95% CI)")
	fmt.Fprintln(w)
	writeFig4Grid(w, results, func(r Fig4Result) string {
		return fmt.Sprintf("%.3f[%.3f,%.3f]", r.FailureProb, r.CI.Lo, r.CI.Hi)
	})
}

// writeFig4Grid pivots results into deadline rows × (prob,LUI) columns.
func writeFig4Grid(w io.Writer, results []Fig4Result, cell func(Fig4Result) string) {
	type colKey struct {
		prob float64
		lui  time.Duration
	}
	cols := make(map[colKey]bool)
	rows := make(map[time.Duration]map[colKey]Fig4Result)
	for _, r := range results {
		k := colKey{prob: r.MinProb, lui: r.LUI}
		cols[k] = true
		if rows[r.Deadline] == nil {
			rows[r.Deadline] = make(map[colKey]Fig4Result)
		}
		rows[r.Deadline][k] = r
	}

	colList := make([]colKey, 0, len(cols))
	for k := range cols {
		colList = append(colList, k)
	}
	sort.Slice(colList, func(i, j int) bool {
		if colList[i].lui != colList[j].lui {
			return colList[i].lui > colList[j].lui
		}
		return colList[i].prob > colList[j].prob
	})
	deadlines := make([]time.Duration, 0, len(rows))
	for d := range rows {
		deadlines = append(deadlines, d)
	}
	sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })

	fmt.Fprintf(w, "%-14s", "deadline(ms)")
	for _, c := range colList {
		fmt.Fprintf(w, " %22s", fmt.Sprintf("p=%.1f,LUI=%ds", c.prob, int(c.lui/time.Second)))
	}
	fmt.Fprintln(w)
	for _, d := range deadlines {
		fmt.Fprintf(w, "%-14d", d/time.Millisecond)
		for _, c := range colList {
			if r, ok := rows[d][c]; ok {
				fmt.Fprintf(w, " %22s", cell(r))
			} else {
				fmt.Fprintf(w, " %22s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
