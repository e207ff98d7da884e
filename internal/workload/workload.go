// Package workload drives a deployed service. Drivers run inside a client
// gateway: periodic reads, and Poisson or bursty update streams. The
// staleness model (Equation 4) assumes Poisson update arrivals; the paper
// notes "it should be possible to evaluate P(Nu(tl) ≤ a) for the case in
// which the arrival of update requests follows a distribution that is not
// Poisson" — the bursty stream stresses exactly that assumption.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aqua/internal/client"
	"aqua/internal/node"
)

// Driver runs a workload against a client gateway from within its node
// context (install it as core.ClientConfig.Driver).
type Driver func(ctx node.Context, gw *client.Gateway)

// Writes generates n "Set" updates whose arrival instants are produced by
// next (a stateful inter-arrival sampler); key namespaces the touched keys.
// done, if non-nil, fires after the last update completes.
func Writes(n int, key string, next func(r *rand.Rand) time.Duration, done func()) Driver {
	return func(ctx node.Context, gw *client.Gateway) {
		issued, completed := 0, 0
		var schedule func()
		schedule = func() {
			if issued >= n {
				return
			}
			i := issued
			issued++
			gw.Invoke("Set", []byte(fmt.Sprintf("%s=%d", key, i)), func(client.Result) {
				completed++
				if completed == n && done != nil {
					done()
				}
			})
			if issued < n {
				ctx.Post(next(ctx.Rand()), schedule)
			}
		}
		ctx.Post(next(ctx.Rand()), schedule)
	}
}

// PoissonWrites issues n updates as an open-loop Poisson process with the
// given rate (events per second): exponential inter-arrival times,
// independent of completion.
func PoissonWrites(n int, key string, rate float64, done func()) Driver {
	return Writes(n, key, func(r *rand.Rand) time.Duration { return PoissonGap(r, rate) }, done)
}

// PoissonGap draws one exponential inter-arrival gap of a Poisson process
// with the given rate (events per second).
func PoissonGap(r *rand.Rand, rate float64) time.Duration {
	u := r.Float64()
	for u <= 0 {
		u = r.Float64()
	}
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}

// BurstyWrites issues n updates in bursts: burstSize arrivals back-to-back
// (1ms apart), then a gap. The mean rate matches a Poisson process of
// burstSize/gap, but the distribution is maximally clumped — the staleness
// model's worst case.
func BurstyWrites(n int, key string, burstSize int, gap time.Duration, done func()) Driver {
	i := 0
	return Writes(n, key, func(*rand.Rand) time.Duration {
		pos := i % burstSize
		i++
		if pos == burstSize-1 {
			return gap
		}
		return time.Millisecond
	}, done)
}

// PeriodicReads issues n read-only requests with a fixed period, reporting
// each result.
func PeriodicReads(n int, method string, payload []byte, period time.Duration, onRead func(client.Result), done func()) Driver {
	return func(ctx node.Context, gw *client.Gateway) {
		var issue func(i int)
		issue = func(i int) {
			if i >= n {
				if done != nil {
					done()
				}
				return
			}
			gw.Invoke(method, payload, func(r client.Result) {
				if onRead != nil {
					onRead(r)
				}
				ctx.Post(period, func() { issue(i + 1) })
			})
		}
		ctx.Post(period, func() { issue(0) })
	}
}
