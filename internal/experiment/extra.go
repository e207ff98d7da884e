package experiment

import (
	"fmt"
	"io"
	"time"

	"aqua/internal/stats"
)

// CalibrationBucket is one row of the model-calibration experiment: reads
// whose predicted success probability fell in [Lo, Hi), against the
// fraction that actually met the deadline.
type CalibrationBucket struct {
	Lo, Hi    float64
	Reads     int
	OnTime    int
	Predicted float64 // mean prediction within the bucket
	Observed  float64
	CI        stats.BinomialCI
}

// RunCalibration validates the probabilistic model head-on (the paper's
// §5.1 claim that "the resulting model makes reasonably good predictions"):
// for every read the client records the model's predicted P_K(d) for the
// chosen set; we bucket predictions and compare with the observed fraction
// of timely responses.
func RunCalibration(cfg Fig4Config, buckets int) []CalibrationBucket {
	if buckets <= 0 {
		buckets = 5
	}
	out := make([]CalibrationBucket, buckets)
	sumPred := make([]float64, buckets)

	// The measured client runs a closed loop in issue order — one
	// outstanding read at a time, OnSelect called once per read before its
	// result — so the i-th prediction belongs to the i-th read's outcome.
	var predictions []float64
	cfg.OnSelect = func(predicted float64, _ int) {
		predictions = append(predictions, predicted)
	}
	reads := 0
	cfg.onReadResult = func(respTime time.Duration) {
		i := reads
		reads++
		if i >= len(predictions) {
			return
		}
		p := predictions[i]
		b := min(int(p*float64(buckets)), buckets-1)
		out[b].Reads++
		sumPred[b] += p
		if respTime <= cfg.Deadline {
			out[b].OnTime++
		}
	}
	RunFig4Point(cfg)
	for i := range out {
		b := &out[i]
		b.Lo, b.Hi = float64(i)/float64(buckets), float64(i+1)/float64(buckets)
		if b.Reads > 0 {
			b.Predicted = sumPred[i] / float64(b.Reads)
			b.Observed = float64(b.OnTime) / float64(b.Reads)
			b.CI = stats.BinomialConfidence(b.OnTime, b.Reads, 0.95)
		}
	}
	return out
}

// WriteCalibrationTable renders the calibration experiment.
func WriteCalibrationTable(w io.Writer, buckets []CalibrationBucket) {
	fmt.Fprintln(w, "Model calibration — predicted P_K(d) vs observed timely fraction")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s %8s %12s %12s %22s\n", "predicted bin", "reads", "meanPred", "observed", "95% CI")
	for _, b := range buckets {
		if b.Reads == 0 {
			continue
		}
		fmt.Fprintf(w, "[%.2f,%.2f)    %8d %12.3f %12.3f     [%.3f,%.3f]\n",
			b.Lo, b.Hi, b.Reads, b.Predicted, b.Observed, b.CI.Lo, b.CI.Hi)
	}
}
