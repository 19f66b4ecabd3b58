package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// schedule returns the due offsets of n requests arriving at a constant
// rate (requests per second), the first one at offset 0.
func schedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// sent is what the open-loop generator recorded for one request, as
// offsets from the step's start.
type sent struct {
	due, start, done time.Duration
	// slept is true when the sender was idle and slept until the due time,
	// so start-due is the generator's own lateness. When the sender was
	// still busy with an earlier request at the due time, the wait is the
	// system's backlog and counts in the latency instead.
	slept bool
}

// latency is the request's latency measured from its due time, which
// counts any wait a stall imposed on it.
func (s sent) latency() time.Duration { return s.done - s.due }

// lag is how late the generator released an on-time request.
func (s sent) lag() time.Duration { return s.start - s.due }

// openLoop sends one request per due offset over conns concurrent
// senders, each holding one connection. Requests go out in due order and
// never before they are due; a sender that falls behind sends the next
// overdue request at once, so the schedule, not the system's speed, sets
// the offered load. It returns when every request has completed or ctx is
// done; requests never started keep a zero record.
func openLoop(ctx context.Context, start time.Time, due []time.Duration, conns int, send func(sender, i int)) []sent {
	out := make([]sent, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				rec := sent{due: due[i]}
				if wait := time.Until(start.Add(due[i])); wait > 0 {
					timer.Reset(wait)
					select {
					case <-ctx.Done():
						return
					case <-timer.C:
					}
					rec.slept = true
				}
				rec.start = time.Since(start)
				send(c, i)
				rec.done = time.Since(start)
				out[i] = rec
			}
		}(c)
	}
	wg.Wait()
	return out
}
