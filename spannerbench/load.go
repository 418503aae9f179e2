package main

// The load generator. It runs in the benchmark's process, beside the
// system under test, with at most two client goroutines and two
// connections (the host has two cores). An open-loop phase sends at
// seeded Poisson arrival times and times each request from when it was
// due; a closed-loop phase has each client send its next request only
// after the previous one completed, and measures capacity.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const clients = 2

// keepBytes caps the response bodies kept for the full check after
// timing; every eighth eval, stream and batch is kept until then.
const keepBytes = 16 << 20

// sample is one completed operation.
type sample struct {
	idx    int64 // position in the operation sequence
	kind   string
	write  bool
	open   bool
	lat    time.Duration // open loop: from due; closed loop: from send
	first  time.Duration // streams: to the first response line; -1 otherwise
	lag    time.Duration // open loop: send time minus due time
	ok     bool
	tuples int
	sent   time.Time
	done   time.Time
}

// runner executes a workload's operation sequence against one entry
// URL and checks every answer.
type runner struct {
	sys       *system
	or        *oracle
	ops       []op
	docNames  []string // every document a merged stream covers
	lane      *editLane
	next      atomic.Int64 // index of the next operation in ops (cycled)
	sentBytes atomic.Int64 // request-body bytes sent
	kept      atomic.Int64 // bytes of kept bodies
	tr        *tracer      // nil: untraced

	mu                sync.Mutex
	wrong             []error
	failed            []string
	acks              []ack
	bodies            []keptBody
	spuriousDoneFalse int // merged streams with a spurious done:false trailer
}

type keptBody struct {
	op   *op
	body []byte
}

// exec runs operation i (cycled through the sequence).
func (w *runner) exec(c *caller, i int64, due time.Time, open bool) sample {
	o := &w.ops[i%int64(len(w.ops))]
	reqID := fmt.Sprintf("b%d", i)
	var span int64
	if w.tr != nil {
		span = w.tr.begin(reqID)
	}
	var x exchange
	var acks []ack
	var out outcome
	if o.kind == "edit" {
		w.lane.mu.Lock()
		m, p, b := o.request(w.lane)
		x = c.do(m, w.sys.entry+p, b, reqID)
		out = w.check(o, x, &acks)
		w.sentBytes.Add(int64(len(b)))
		if out.err == nil && out.note == "" {
			var r struct {
				Version int `json:"version"`
			}
			if err := json.Unmarshal(x.body, &r); err == nil {
				w.lane.version = r.Version
			}
		}
		w.lane.mu.Unlock()
	} else {
		var m, p string
		var b []byte
		if o.kind == "changes" {
			w.lane.mu.Lock()
			m, p, b = o.request(w.lane)
			w.lane.mu.Unlock()
		} else {
			m, p, b = o.request(w.lane)
		}
		x = c.do(m, w.sys.entry+p, b, reqID)
		out = w.check(o, x, &acks)
		w.sentBytes.Add(int64(len(b)))
	}
	if w.tr != nil {
		w.tr.end(span, "request."+o.kind, reqID, x.sent, x.done)
	}
	if due.IsZero() {
		due = x.sent
	}
	s := sample{idx: i, kind: o.kind, write: o.isWrite(), open: open, lat: x.done.Sub(due), first: -1, lag: x.sent.Sub(due), ok: out.err == nil && out.note == "", tuples: out.tuples, sent: x.sent, done: x.done}
	if o.kind == "stream" {
		s.first = x.first.Sub(due)
	}
	keep := s.ok && i%8 == 0 && (o.kind == "eval" || o.kind == "stream" || o.kind == "batch")
	if keep && w.kept.Add(int64(len(x.body))) > keepBytes {
		keep = false
	}
	w.mu.Lock()
	if out.err != nil {
		w.wrong = append(w.wrong, out.err)
	}
	if out.note != "" {
		w.failed = append(w.failed, out.note)
	}
	w.acks = append(w.acks, acks...)
	if out.defect {
		w.spuriousDoneFalse++
	}
	if keep {
		w.bodies = append(w.bodies, keptBody{op: o, body: append([]byte(nil), x.body...)})
	}
	w.mu.Unlock()
	return s
}

// arrivals returns seeded Poisson arrival offsets for one phase of a
// run at rate per second over dur: exactly rate·dur of them (a Poisson process conditioned on
// its count is that many uniform points, sorted), so every run has the
// same number of open-loop samples.
func arrivals(seed uint64, phase string, rate float64, dur time.Duration) []time.Duration {
	r := newRand(seed, "arrivals/"+phase)
	out := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop sends operations at the given arrival offsets from two
// client goroutines. A request whose due time passes while both
// clients are busy is sent late, and its latency includes the wait.
func (w *runner) openLoop(at []time.Duration) []sample {
	start := time.Now().Add(5 * time.Millisecond)
	var slot atomic.Int64
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newCaller(w.sys.client)
			for {
				k := slot.Add(1) - 1
				if k >= int64(len(at)) {
					return
				}
				due := start.Add(at[k])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				out[c] = append(out[c], w.exec(cl, w.next.Add(1)-1, due, true))
			}
		}(c)
	}
	wg.Wait()
	return append(out[0], out[1]...)
}

// closedLoop runs two clients back to back for dur and returns the
// samples and the elapsed time until the last completed.
func (w *runner) closedLoop(dur time.Duration) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newCaller(w.sys.client)
			for time.Now().Before(deadline) {
				out[c] = append(out[c], w.exec(cl, w.next.Add(1)-1, time.Time{}, false))
			}
		}(c)
	}
	wg.Wait()
	return append(out[0], out[1]...), time.Since(start)
}

// quantile returns the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
