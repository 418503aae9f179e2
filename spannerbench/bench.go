package main

// One benchmark run of one workload: generate inputs, compute the
// oracle, set the system up several times (set-up time is the median),
// then either measure the end-to-end metrics (untraced) or run the
// traced run that derives the per-layer metrics.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"docspanner/internal/slpmatch"
)

//go:embed workloads.json
var settingsJSON []byte

// settings are the fixed per-workload load parameters: the open-loop
// arrival rate (never adapted per run; README.md gives how it was
// chosen) and the latency limit slo_ok_frac is measured against.
type settings struct {
	Rate  float64 `json:"rate_per_s"`
	SLOms float64 `json:"slo_ms"`
}

func loadSettings() (map[string]settings, error) {
	var m map[string]settings
	if err := json.Unmarshal(settingsJSON, &m); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return m, nil
}

const setupRepeats = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured.
type result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
	Extra      map[string]metric  `json:"extra"`    // measured but not gated (workload-specific)
	Counters   map[string]int64   `json:"counters"` // repeat exactly for a seed
	Scrape     map[string]float64 `json:"metrics_scrape_delta,omitempty"`
	Provenance provenance         `json:"provenance"`
	Report     []string           `json:"-"`
}

func (r *result) set(name string, v float64, unit string)   { r.Metrics[name] = metric{v, unit} }
func (r *result) extra(name string, v float64, unit string) { r.Extra[name] = metric{v, unit} }
func (r *result) printf(format string, args ...any) {
	r.Report = append(r.Report, fmt.Sprintf(format, args...))
}

// session is one workload's inputs, oracle and booted system.
type session struct {
	in      *inputs
	seed    uint64
	or      *oracle
	set     settings
	scratch string
	sys     *system
	run     *runner
	sent    int64 // request-body bytes sent to the system at set-up

	setupMisses uint64 // slpmatch cache misses during the last set-up
}

// newRunner makes a fresh runner (and edit lane) for the session's
// current system.
func (s *session) newRunner() *runner {
	w := &runner{sys: s.sys, or: s.or, ops: s.in.ops, docNames: s.in.allDocs}
	if s.in.newLane != nil {
		base := len(s.in.built[0].exprs)
		w.lane = &editLane{seq: s.in.newLane(), base: base, version: base}
	} else {
		w.lane = &editLane{}
	}
	return w
}

// setupOnce boots and loads a system and runs one block of operations
// as warm-up; it returns the elapsed set-up time.
func (s *session) setupOnce(tr *tracer) (time.Duration, error) {
	_, m0 := slpmatch.CacheStats()
	start := time.Now()
	sys, sent, err := setup(s.in, tr, s.scratch)
	if err != nil {
		return 0, err
	}
	s.sys, s.sent = sys, sent
	s.run = s.newRunner()
	c := newCaller(sys.client)
	for i := 0; i < warmOps; i++ {
		s.run.exec(c, s.run.next.Add(1)-1, time.Time{}, false)
	}
	if err := s.run.firstError(); err != nil {
		return 0, err
	}
	d := time.Since(start)
	_, m1 := slpmatch.CacheStats()
	s.setupMisses = m1 - m0
	return d, nil
}

const warmOps = 20

func (w *runner) firstError() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.wrong) > 0 {
		return w.wrong[0]
	}
	if len(w.failed) > 0 {
		return fmt.Errorf("warm-up request failed: %s", w.failed[0])
	}
	return nil
}

// runBench runs one workload once.
func runBench(wl workload, seed uint64, seconds float64, trace bool, outDir string) (*result, error) {
	all, err := loadSettings()
	if err != nil {
		return nil, err
	}
	set, ok := all[wl.name]
	if !ok {
		return nil, fmt.Errorf("workloads.json has no settings for %s", wl.name)
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	res := &result{Workload: wl.name, Seed: seed, Trace: trace, Seconds: seconds,
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Counters: map[string]int64{}}
	res.Provenance = hostProvenance(seed, wl.name)
	s := &session{in: wl.gen(seed), seed: seed, set: set, scratch: scratch}
	if s.or, err = buildOracle(s.in); err != nil {
		return nil, err
	}

	tr := newTracer()
	repeats := setupRepeats
	if trace {
		repeats = 1
		tr.on.Store(true)
	}
	var setups []time.Duration
	for k := 0; k < repeats; k++ {
		if k > 0 {
			s.close()
		}
		d, err := s.setupOnce(tr)
		if err != nil {
			s.close()
			return nil, err
		}
		setups = append(setups, d)
	}
	defer s.close()
	s.recordSetupCounters(res)

	before := s.scrape()
	dur := time.Duration(seconds * float64(time.Second))
	if trace {
		err = s.traced(res, tr, dur, outDir)
	} else {
		sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
		res.set("setup_s", setups[len(setups)/2].Seconds(), "s")
		err = s.measured(res, dur)
	}
	if err != nil {
		return nil, err
	}
	res.Scrape = scrapeDelta(before, s.scrape())
	s.finish(res)
	if s.in.disk && !trace {
		if err := s.restartCheck(res); err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	res.Correct = len(res.Errors) == 0
	return res, nil
}

func (s *session) close() {
	if s.sys != nil {
		s.sys.close()
		s.sys = nil
	}
}

// rounds is how many times a run alternates an open-loop and a
// closed-loop phase. Interference from other processes on the host
// comes and goes within seconds; spreading both phases over the whole
// run (and taking throughput as the median over the rounds) keeps one
// bad second from deciding a run's figures.
const rounds = 5

// measured alternates open-loop and closed-loop phases untraced and
// sets the end-to-end metrics.
func (s *session) measured(res *result, dur time.Duration) error {
	s.settle(res.Seed)
	openDur := dur * 80 / 100 / rounds
	closedDur := dur/rounds - openDur
	var open, closed []sample
	var rps []float64
	var elapsed time.Duration
	tuples := 0
	for r := 0; r < rounds; r++ {
		open = append(open, s.run.openLoop(arrivals(res.Seed, fmt.Sprint(r), s.set.Rate, openDur))...)
		c, el := s.run.closedLoop(closedDur)
		n := 0
		for _, x := range c {
			if x.ok {
				n, tuples = n+1, tuples+x.tuples
			}
		}
		rps = append(rps, float64(n)/el.Seconds())
		closed, elapsed = append(closed, c...), elapsed+el
	}

	sloOK := 0
	for _, x := range open {
		if x.ok && ms(x.lat) <= s.set.SLOms {
			sloOK++
		}
	}
	lat := pick(open, latOf)
	writes := pick(open, func(x sample) (time.Duration, bool) { return x.lat, x.write })
	lags := pick(open, func(x sample) (time.Duration, bool) { return x.lag, true })
	// Throughput is the median over the rounds; delivered tuples, which
	// few requests of a round may carry, are pooled over all of them.
	// Like the latencies below, both are reported, not gated: the host's
	// speed drift over minutes gave them run-to-run spreads (IQR over
	// median, ten seeds) of up to 0.24 and 0.28, at or past the largest
	// bound a gated metric may have (0.25).
	res.extra("throughput_rps", medianF(rps), "req/s")
	res.extra("tuples_per_s", float64(tuples)/elapsed.Seconds(), "tuples/s")
	// Open-loop latencies are timed from the due time, so they include
	// waiting for one of the two clients; that queue amplifies the drift
	// into spreads of up to 0.41.
	res.extra("latency_p50_ms", ms(quantile(lat, 0.50)), "ms")
	res.extra("latency_p99_ms", ms(quantile(lat, 0.99)), "ms")
	res.extra("read_p50_ms", ms(quantile(pick(open, readOf), 0.50)), "ms")
	res.extra("first_tuple_p50_ms", ms(quantile(pick(open, firstOf), 0.50)), "ms")
	res.set("slo_ok_frac", float64(sloOK)/float64(max(1, len(open))), "ratio")
	if len(writes) > 0 {
		res.extra("write_p50_ms", ms(quantile(writes, 0.50)), "ms")
	}
	res.extra("open_loop_samples", float64(len(open)), "count")
	res.extra("open_loop_rate", s.set.Rate, "req/s")
	res.extra("slo_limit_ms", s.set.SLOms, "ms")
	res.extra("generator_lag_p99_ms", ms(quantile(lags, 0.99)), "ms")
	res.extra("latency_p99_samples_beyond", float64(len(lat)-int(math.Ceil(0.99*float64(len(lat))))), "count")
	res.extra("closed_loop_requests", float64(len(closed)), "count")
	perKind := map[string][]time.Duration{}
	for _, x := range append(append([]sample(nil), open...), closed...) {
		k := x.kind
		if x.open {
			k = "open " + k
		} else {
			k = "closed " + k
		}
		perKind[k] = append(perKind[k], x.lat)
	}
	var kinds []string
	for k := range perKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		d := perKind[k]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		res.printf("  %-24s n=%-6d p50 %9.3f ms  p90 %9.3f ms  max %9.3f ms", k, len(d), ms(quantile(d, 0.5)), ms(quantile(d, 0.9)), ms(d[len(d)-1]))
	}
	res.printf("open loop: %d requests at %.0f/s (Poisson), %d beyond p99; closed loop: %d clients, %d requests in %.2fs",
		len(open), s.set.Rate, len(lat)-int(math.Ceil(0.99*float64(len(lat)))), clients, len(closed), elapsed.Seconds())
	return nil
}

// pick returns the sorted values f accepts from xs.
func pick(xs []sample, f func(sample) (time.Duration, bool)) []time.Duration {
	var out []time.Duration
	for _, x := range xs {
		if v, ok := f(x); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func latOf(x sample) (time.Duration, bool)   { return x.lat, true }
func readOf(x sample) (time.Duration, bool)  { return x.lat, !x.write }
func firstOf(x sample) (time.Duration, bool) { return x.first, x.first >= 0 && x.ok }

// settleTime is the unmeasured open-loop period between set-up and the
// measured phases: the garbage of set-up is collected and the runtime,
// caches and connections reach their steady state.
const settleTime = time.Second

func (s *session) settle(seed uint64) {
	runtime.GC()
	s.run.openLoop(arrivals(seed, "settle", s.set.Rate, settleTime))
}

// finish verifies the kept bodies and versioned answers, totals
// attempted and failed requests, and measures the live heap.
func (s *session) finish(res *result) {
	w := s.run
	w.mu.Lock()
	bodies := w.bodies
	w.bodies = nil
	w.mu.Unlock()
	for _, b := range bodies {
		if err := s.or.verifyBody(b.op, b.body); err != nil {
			w.wrong = append(w.wrong, err)
		}
	}
	res.extra("bodies_fully_checked", float64(len(bodies)), "count")
	if s.in.newLane != nil {
		if err := s.checkLane(); err != nil {
			w.wrong = append(w.wrong, err)
		}
	}
	for _, e := range w.wrong {
		if len(res.Errors) < 20 {
			res.Errors = append(res.Errors, e.Error())
		}
	}
	res.Attempted = int(w.next.Load()) - warmOps
	res.Failed = len(w.failed)
	for i, f := range w.failed {
		if i == 5 {
			break
		}
		res.printf("failed: %s", f)
	}
	if w.spuriousDoneFalse > 0 {
		res.printf("DEFECT: %d merged streams reached their limit but the coordinator's trailer said done:false (a shard fetch it cancelled itself reported as a 502 \"context canceled\")", w.spuriousDoneFalse)
	}
	res.extra("merged_stream_spurious_done_false", float64(w.spuriousDoneFalse), "count")
	res.extra("error_rate", float64(res.Failed)/float64(max(1, res.Attempted)), "ratio")
	if !res.Trace {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		res.set("live_heap_mb", float64(m.HeapAlloc)/(1<<20), "MiB")
	}
}

// scrape reads /metrics of every node and the coordinator.
func (s *session) scrape() map[string]float64 {
	out := map[string]float64{}
	read := func(prefix, u string) {
		resp, err := s.sys.client.Get(u + "/metrics")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return
		}
		for k, v := range parseProm(b, prefix) {
			out[k] += v
		}
	}
	for _, nd := range s.sys.nodes {
		read("", nd.url)
	}
	if s.sys.coord != nil {
		read("coordinator:", s.sys.coordURL)
	}
	return out
}

// scrapeDelta keeps the counters that moved, skipping histogram buckets.
func scrapeDelta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if strings.Contains(k, "_bucket{") {
			continue
		}
		if d := v - before[k]; d != 0 && (strings.Contains(k, "_total") || strings.Contains(k, "_count")) {
			out[k] = d
		}
	}
	return out
}
