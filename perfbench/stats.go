package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples above it — the sample of rank n−tailBeyond in ascending
// order — together with that percentile and the sample count. ok is false
// when there are too few samples for any such percentile.
func tail(xs []float64) (value, percentile float64, n int, ok bool) {
	n = len(xs)
	if n <= tailBeyond {
		return 0, 0, n, false
	}
	s := sortedCopy(xs)
	k := n - tailBeyond // samples at or below the reported value
	return s[k-1], 100 * float64(k) / float64(n), n, true
}

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method,
// which extrapolates for fewer than three samples) — the computation
// run-to-run spread is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// claimHolds applies the rule a performance claim must pass: over paired
// runs of the parent and the change (alternating order), the change wins at
// least nine tenths of all pairs, ties counting for neither side, and the
// medians differ by more than the parent's own interquartile distance.
// lowerIsBetter selects the direction of "wins".
func claimHolds(parent, change []float64, lowerIsBetter bool) (wins int, ok bool) {
	pairs := len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	if pairs == 0 {
		return 0, false
	}
	for i := 0; i < pairs; i++ {
		if (lowerIsBetter && change[i] < parent[i]) || (!lowerIsBetter && change[i] > parent[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(parent[:pairs])
	gain := median(parent[:pairs]) - median(change[:pairs])
	if !lowerIsBetter {
		gain = -gain
	}
	return wins, 10*wins >= 9*pairs && gain > q3-q1
}

// openLoopResult is the timing of one open-loop operation. Latency runs from
// the moment the operation was due, not from when it was sent, so a stalled
// operation charges its wait to every operation queued behind it.
type openLoopResult struct {
	Late    time.Duration // how late the generator released the operation
	Sent    time.Duration // when a connection picked it up
	Latency time.Duration // completion − due
	Err     error
}

// runOpenLoop releases operation i at offset dues[i] from now (dues must be
// ascending) into an unbounded queue served by conns senders, and returns
// once every operation has finished.
func runOpenLoop(dues []time.Duration, conns int, send func(i int) error) []openLoopResult {
	out := make([]openLoopResult, len(dues))
	// Sized to the number of sends, so releasing never blocks the generator:
	// a busy connection queues work instead of delaying the schedule.
	queue := make(chan int, len(dues))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sent := time.Since(start)
				err := send(i)
				out[i].Sent = sent
				out[i].Latency = time.Since(start) - dues[i]
				out[i].Err = err
			}
		}()
	}
	for i, due := range dues {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].Late = time.Since(start) - due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}
