// Package qos implements the paper's QoS model (Section 2): consistency as
// the two-dimensional attribute <ordering guarantee, staleness threshold>,
// where the ordering is always sequential, so a client's consistency choice
// reduces to the staleness threshold; timeliness as the pair <response time,
// probability of meeting it>; the read-only method registry that lets the
// middleware distinguish reads from updates; and the timing-failure detector
// of Section 5.4.
package qos

import (
	"errors"
	"fmt"
	"time"
)

// Spec is a client's QoS specification for its read-only requests: "a copy
// ... that is not more than Staleness versions old within Deadline with a
// probability of at least MinProb". The ordering guarantee is always
// sequential, so Staleness is the whole consistency attribute.
type Spec struct {
	// Staleness is the maximum number of committed-but-unseen updates the
	// client tolerates in a response (threshold a, in versions).
	Staleness int
	// Deadline is the response-time constraint d.
	Deadline time.Duration
	// MinProb is Pc(d), the minimum probability of meeting Deadline.
	MinProb float64
}

// Validate reports whether the specification is well-formed.
func (s Spec) Validate() error {
	switch {
	case s.Staleness < 0:
		return errors.New("qos: staleness threshold must be >= 0")
	case s.Deadline <= 0:
		return errors.New("qos: deadline must be positive")
	case !(s.MinProb >= 0 && s.MinProb <= 1): // also rejects NaN
		return errors.New("qos: probability must be in [0,1]")
	default:
		return nil
	}
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	return fmt.Sprintf("<=%d versions stale within %v with P>=%.2f",
		s.Staleness, s.Deadline, s.MinProb)
}

// Methods is the read-only method registry. Per the request model, "a
// client application has to explicitly specify all the read-only methods it
// invokes on an object by their names. If an operation is not specified as
// read-only, then our middleware considers it to be an update operation."
type Methods struct {
	readOnly map[string]bool
}

// NewMethods registers the given method names as read-only.
func NewMethods(readOnly ...string) *Methods {
	m := &Methods{readOnly: make(map[string]bool, len(readOnly))}
	for _, name := range readOnly {
		m.readOnly[name] = true
	}
	return m
}

// IsReadOnly reports whether method was declared read-only.
func (m *Methods) IsReadOnly(method string) bool {
	return m != nil && m.readOnly[method]
}

// FailureDetector is the client-side timing-failure detector: it counts
// requests and deadline misses and issues a callback when the observed
// frequency of timely responses drops below the client's requested minimum
// probability.
type FailureDetector struct {
	spec     Spec
	onBreach func(observedFailureRate float64)
	total    int
	failures int
	breached bool
}

// NewFailureDetector creates a detector for spec. onBreach may be nil.
func NewFailureDetector(spec Spec, onBreach func(observedFailureRate float64)) *FailureDetector {
	return &FailureDetector{spec: spec, onBreach: onBreach}
}

// Record notes the outcome of one read request. It returns true if this
// outcome was a timing failure.
func (f *FailureDetector) Record(responseTime time.Duration) bool {
	f.total++
	miss := responseTime > f.spec.Deadline
	if miss {
		f.failures++
	}
	if f.onBreach != nil && !f.breached {
		if rate := f.FailureRate(); rate > 1-f.spec.MinProb {
			f.breached = true
			f.onBreach(rate)
		}
	}
	return miss
}

// Total returns the number of recorded requests.
func (f *FailureDetector) Total() int { return f.total }

// Failures returns the number of recorded timing failures.
func (f *FailureDetector) Failures() int { return f.failures }

// FailureRate returns the observed timing-failure frequency (0 before any
// request is recorded).
func (f *FailureDetector) FailureRate() float64 {
	if f.total == 0 {
		return 0
	}
	return float64(f.failures) / float64(f.total)
}
