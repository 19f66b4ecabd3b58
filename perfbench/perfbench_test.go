package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{1000, 99, 990, 10},
		{1000, 50, 500, 500},
		{999, 99, 990, 9}, // too few samples for a trustworthy p99
		{1010, 99, 1000, 10},
		{1, 99, 1, 0},
		{4, 50, 2, 2},
	}
	for _, c := range cases {
		got, beyond := percentile(seq(c.n), c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..%d, %v) = %v (%d beyond), want %v (%d beyond)",
				c.n, c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestStepRequestsKeepTenBeyondP99 pins that every rate step has enough
// requests for ten samples beyond its p99, whatever the run length.
func TestStepRequestsKeepTenBeyondP99(t *testing.T) {
	for _, seconds := range []int{1, 18, 60} {
		n := stepRequests(seconds)
		xs := make([]float64, n)
		if _, beyond := percentile(xs, 99); beyond < minTailSamples {
			t.Errorf("seconds=%d: %d requests leave %d beyond p99", seconds, n, beyond)
		}
	}
}

// TestSpeedIsReferenceOverMedian pins the calibration's direction: a
// machine running the kernel in half the reference time has speed 2, which
// halves a gated rate and doubles a gated time.
func TestSpeedIsReferenceOverMedian(t *testing.T) {
	ref := float64(calibrationRefMs)
	if got := speed([]float64{ref / 2, ref / 2, 9 * ref}); got != 2 {
		t.Errorf("speed = %v, want 2", got)
	}
	if got := speed([]float64{ref}); got != 1 {
		t.Errorf("speed at the reference = %v, want 1", got)
	}
}

func TestScheduleIsConstantRate(t *testing.T) {
	due := schedule(5, 200)
	for i, d := range due {
		if want := time.Duration(i) * 5 * time.Millisecond; d != want {
			t.Errorf("due[%d] = %v, want %v", i, d, want)
		}
	}
}

// TestOpenLoopCountsBacklogFromDueTime drives one sender that is slower
// than the schedule: later requests go out late, and their latency must
// include that wait because it counts from the due time.
func TestOpenLoopCountsBacklogFromDueTime(t *testing.T) {
	const n, service = 10, 5 * time.Millisecond
	due := schedule(n, 1000) // one due every millisecond
	recs := openLoop(context.Background(), time.Now(), due, 1, func(_, _ int) { time.Sleep(service) })
	for i, rec := range recs {
		if rec.start < rec.due {
			t.Fatalf("request %d started %v before it was due", i, rec.due-rec.start)
		}
		// Request i cannot finish before i+1 services have run back to back.
		if floor := time.Duration(i+1)*service - rec.due; rec.latency() < floor {
			t.Errorf("request %d latency %v, want at least %v", i, rec.latency(), floor)
		}
		if i > 0 && rec.slept {
			t.Errorf("request %d: the sender was busy, yet the wait was booked as generator lag", i)
		}
	}
}

// TestOpenLoopKeepsScheduleWhenIdle checks that an idle generator releases
// every request, none before its due time, and spreads them over all its
// senders.
func TestOpenLoopKeepsScheduleWhenIdle(t *testing.T) {
	due := schedule(40, 400)
	used := make([]int, 2)
	recs := openLoop(context.Background(), time.Now(), due, 2, func(c, _ int) {
		used[c]++ // each sender writes only its own slot
	})
	for i, rec := range recs {
		if rec.start < rec.due {
			t.Errorf("request %d started early", i)
		}
		if rec.done == 0 {
			t.Errorf("request %d never completed", i)
		}
	}
	if used[0]+used[1] != len(due) || used[0] == 0 || used[1] == 0 {
		t.Errorf("senders sent %v requests, want %d over both", used, len(due))
	}
}

// TestClosedLoopKeepsEveryConnectionBusy checks the capacity phase: with
// every due offset zero, each sender sends its next request as soon as its
// last one is answered, so n requests of a fixed service time over conns
// senders take about n/conns service times, and the chunks of a phase
// cover every request once.
func TestClosedLoopKeepsEveryConnectionBusy(t *testing.T) {
	const n, conns, service = 20, 2, 2 * time.Millisecond
	used := make([]int, conns)
	recs := openLoop(context.Background(), time.Now(), make([]time.Duration, n), conns, func(c, _ int) {
		used[c]++ // each sender writes only its own slot
		time.Sleep(service)
	})
	var wall time.Duration
	overlap := false
	for i, rec := range recs {
		wall = max(wall, rec.done)
		if rec.slept {
			t.Errorf("request %d waited for a due time in a closed loop", i)
		}
		for j := i + 1; j < n; j++ {
			overlap = overlap || (rec.start < recs[j].done && recs[j].start < rec.done)
		}
	}
	if used[0] == 0 || used[1] == 0 || !overlap {
		t.Errorf("senders sent %v requests, overlapping %t: want both busy at once", used, overlap)
	}
	if lo := n / conns * service; wall < lo {
		t.Errorf("closed loop of %d requests took %v, less than %v of service", n, wall, lo)
	}
	for _, total := range []int{0, 1, 299, 1000} {
		next := 0
		for c := 0; c < serveChunks; c++ {
			lo, hi := part(total, c)
			if lo != next || hi < lo {
				t.Fatalf("part(%d, %d) = [%d, %d), want to start at %d", total, c, lo, hi, next)
			}
			next = hi
		}
		if next != total {
			t.Errorf("chunks of %d requests end at %d", total, next)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and this program in
// step: the same metric names and units, and the serve-open rates and
// latency limit the program uses.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, program unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, perLayerUnits)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if w.Name != "serve-open" {
			continue
		}
		var rates []string
		for _, s := range serveSteps {
			rates = append(rates, fmt.Sprint(s.rate))
		}
		for _, want := range []string{strings.Join(rates, "/") + " req/s", fmt.Sprintf("p99 limit %d ms", serveP99LimitMs)} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("serve-open why %q does not state %q", w.Why, want)
			}
		}
	}
}
