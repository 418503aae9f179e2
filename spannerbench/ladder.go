package main

// The traced run. It measures the open-loop phase untraced and then
// traced (their difference is the tracing overhead), replays sampled
// requests as a ladder — library, in-process ServeHTTP, loopback HTTP,
// coordinator — and probes every layer's public functions on the
// workload's own inputs. Each layer's metric is derived from those
// timings; no code inside the program is changed or instrumented.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"docspanner"
	"docspanner/internal/slpmatch"
)

const (
	ladderPerKind = 6 // sampled requests per kind
	ladderRepeats = 5 // timed repeats per rung; the median is kept
)

var ladderKinds = []string{"eval", "stream", "count", "batch"}

// rungTimes are one ladder request's per-rung medians.
type rungTimes struct {
	kind                     string
	whole                    time.Duration // under load, from send (0: not sampled from the load)
	lib, inproc, loop, coord time.Duration
	tuples, respBytes        int
	libAllocs, inprocAllocs  uint64
	enumT, sortT             time.Duration // eval only
}

// medianDur returns the median of ds (0 when empty).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// allocCount reads the process's cumulative heap allocation count.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocsOf runs f once with the collector off and returns the number of
// heap objects it allocated. A collection first empties the pools, so
// the count repeats exactly for the same input.
func allocsOf(f func()) uint64 {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	a := allocCount()
	f()
	return allocCount() - a
}

// docRef is the library's form of a stored document.
func (s *session) docRef(name string) ([]byte, *docspanner.Document) {
	if d, ok := s.or.docs[name]; ok {
		return nil, d
	}
	return s.or.bytes[name], nil
}

// ladderOp is a sampled request and, when it was sampled from the
// traced load, its latency there from send to completion.
type ladderOp struct {
	op    op
	whole time.Duration
}

// ladderOps samples single-document requests of every ladder kind from
// the requests the traced load sent. A kind the workload does not send
// is formed from its eval requests, and a merged stream is replayed on
// one of its documents.
func (s *session) ladderOps(load []sample) []ladderOp {
	byKind := map[string][]ladderOp{}
	var evals []op
	for _, x := range load {
		if !x.ok {
			continue
		}
		o := s.in.ops[x.idx%int64(len(s.in.ops))]
		whole := x.lat - x.lag
		switch {
		case o.kind == "stream" && o.docs != nil:
			o.docs, o.doc = nil, s.in.allDocs[x.idx%int64(len(s.in.allDocs))]
			whole = 0
		case o.kind == "batch" && s.sys.coord != nil:
			var mine []string
			for _, d := range o.docs {
				if s.sys.coord.Ring().Owner(d) == 0 {
					mine = append(mine, d)
				}
			}
			if len(mine) == 0 {
				continue
			}
			o.docs, whole = mine, 0
		}
		if o.kind == "eval" {
			evals = append(evals, o)
		}
		if len(byKind[o.kind]) < ladderPerKind {
			byKind[o.kind] = append(byKind[o.kind], ladderOp{op: o, whole: whole})
		}
	}
	var out []ladderOp
	for _, k := range ladderKinds {
		ops := byKind[k]
		for i := 0; len(ops) < ladderPerKind && i < len(evals); i++ {
			o := evals[i]
			o.kind = k
			if k == "batch" {
				o.docs, o.doc = []string{o.doc}, ""
			}
			ops = append(ops, ladderOp{op: o})
		}
		out = append(out, ops...)
	}
	return out
}

// library runs the request's work through the library alone and
// returns the tuples it produced.
func (s *session) library(o *op) (int, error) {
	q := s.or.qs[o.query]
	ctx := context.Background()
	switch o.kind {
	case "count":
		text, doc := s.docRef(o.doc)
		if doc != nil {
			return q.CountCompressedContext(ctx, doc)
		}
		return q.CountContext(ctx, text)
	case "batch":
		var texts [][]byte
		var docs []*docspanner.Document
		for _, name := range o.docs {
			if t, d := s.docRef(name); d != nil {
				docs = append(docs, d)
			} else {
				texts = append(texts, t)
			}
		}
		var rels []*docspanner.Relation
		if len(texts) > 0 {
			r, err := docspanner.EvalDocs(ctx, q, texts, docspanner.ParallelOptions{})
			if err != nil {
				return 0, err
			}
			rels = append(rels, r...)
		}
		if len(docs) > 0 {
			r, err := docspanner.EvalCompressedDocs(ctx, q, docs, docspanner.ParallelOptions{})
			if err != nil {
				return 0, err
			}
			rels = append(rels, r...)
		}
		n := 0
		for _, r := range rels {
			n += len(r.Sorted())
		}
		return n, nil
	}
	text, doc := s.docRef(o.doc)
	n, _, _, _, err := s.enumerate(o, text, doc)
	return n, err
}

// enumerate runs an eval or stream request's enumeration (and, for
// eval, the sort) and times its parts.
func (s *session) enumerate(o *op, text []byte, doc *docspanner.Document) (n int, first, enumT, sortT time.Duration, err error) {
	q := s.or.qs[o.query]
	var tuples []docspanner.Tuple
	var rel *docspanner.Relation
	distinct := q.DistinctEnumeration()
	if o.kind == "eval" && !distinct {
		rel = docspanner.NewRelation()
	}
	start := time.Now()
	f := func(t docspanner.Tuple) bool {
		if n == 0 {
			first = time.Since(start)
		}
		n++
		switch {
		case o.kind == "stream":
		case rel != nil:
			rel.Add(t)
		default:
			tuples = append(tuples, t)
		}
		return o.limit == 0 || n < o.limit
	}
	if doc != nil {
		err = q.EnumerateCompressedContext(context.Background(), doc, f)
	} else {
		err = q.EnumerateContext(context.Background(), text, f)
	}
	enumT = time.Since(start)
	if o.kind == "eval" {
		t := time.Now()
		if rel != nil {
			n = len(rel.Sorted())
		} else {
			docspanner.SortTuples(tuples)
		}
		sortT = time.Since(t)
	}
	return n, first, enumT, sortT, err
}

// nodeFor returns the node that owns the request's document.
func (s *session) nodeFor(o *op) *node {
	if s.sys.coord == nil || len(s.sys.nodes) == 1 {
		return s.sys.nodes[0]
	}
	name := o.doc
	if name == "" {
		name = o.docs[0]
	}
	return s.sys.nodes[s.sys.coord.Ring().Owner(name)]
}

// ladder replays the sampled requests rung by rung.
func (s *session) ladder(load []sample) ([]rungTimes, error) {
	if s.sys.coord == nil {
		if err := s.sys.startCoordinator(); err != nil {
			return nil, err
		}
	}
	c := newCaller(s.sys.client)
	var out []rungTimes
	for i, lo := range s.ladderOps(load) {
		o := lo.op
		nd := s.nodeFor(&o)
		method, path, body := o.request(nil)
		var lib, inproc, loop, coord []time.Duration
		rt := rungTimes{kind: o.kind, whole: lo.whole}
		for r := 0; r < ladderRepeats; r++ {
			t := time.Now()
			n, err := s.library(&o)
			lib = append(lib, time.Since(t))
			if err != nil {
				return nil, err
			}
			rt.tuples = n

			rec := httptest.NewRecorder()
			t = time.Now()
			nd.srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			inproc = append(inproc, time.Since(t))
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("ladder %s %s: in-process HTTP %d: %.200s", method, path, rec.Code, rec.Body.Bytes())
			}
			rt.respBytes = rec.Body.Len()

			id := fmt.Sprintf("ladder-%d-%d", i, r)
			x := c.do(method, nd.url+path, body, id)
			if x.err != nil || x.status != http.StatusOK {
				return nil, fmt.Errorf("ladder %s %s: loopback HTTP %d: %v", method, path, x.status, x.err)
			}
			loop = append(loop, x.done.Sub(x.sent))

			cpath := path
			if o.kind == "stream" && s.sys.coord != nil && len(s.sys.nodes) > 1 {
				cpath = strings.Replace(path, "doc=", "docs=", 1)
			}
			x = c.do(method, s.sys.coordURL+cpath, body, id+"-c")
			if x.err != nil || x.status != http.StatusOK {
				return nil, fmt.Errorf("ladder %s %s: coordinator HTTP %d: %v", method, cpath, x.status, x.err)
			}
			coord = append(coord, x.done.Sub(x.sent))
		}
		rt.lib, rt.inproc, rt.loop, rt.coord = medianDur(lib), medianDur(inproc), medianDur(loop), medianDur(coord)
		rt.libAllocs = allocsOf(func() { _, _ = s.library(&o) })
		rt.inprocAllocs = allocsOf(func() {
			nd.srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, bytes.NewReader(body)))
		})
		if o.kind == "eval" {
			var enums, sorts []time.Duration
			for r := 0; r < ladderRepeats; r++ {
				text, doc := s.docRef(o.doc)
				_, _, e, st, _ := s.enumerate(&o, text, doc)
				enums, sorts = append(enums, e), append(sorts, st)
			}
			rt.enumT, rt.sortT = medianDur(enums), medianDur(sorts)
		}
		out = append(out, rt)
	}
	return out, nil
}

// runtimeSample reads the runtime counters the traced run reports.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// traced runs the traced run and sets every per-layer metric.
func (s *session) traced(res *result, tr *tracer, dur time.Duration, outDir string) error {
	phase := dur / 4
	tr.on.Store(false)
	s.settle(res.Seed)
	untraced := s.run.openLoop(arrivals(res.Seed, "untraced", s.set.Rate, phase))

	tr.on.Store(true)
	s.run.tr = tr
	rt0 := readRuntime()
	h0, m0 := slpmatch.CacheStats()
	traced := s.run.openLoop(arrivals(res.Seed, "traced", s.set.Rate, phase))
	rt1 := readRuntime()
	s.run.tr = nil

	lad, err := s.ladder(traced)
	if err != nil {
		return err
	}
	h1, m1 := slpmatch.CacheStats()
	if err := s.probe(res); err != nil {
		return err
	}

	lat := func(xs []sample) []time.Duration {
		var out []time.Duration
		for _, x := range xs {
			out = append(out, x.lat)
		}
		return out
	}
	p50u, p50t := medianDur(lat(untraced)), medianDur(lat(traced))
	res.set("trace.overhead_frac", (ms(p50t)-ms(p50u))/ms(p50u), "ratio")
	var lags []time.Duration
	for _, x := range untraced {
		lags = append(lags, x.lag)
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	res.set("bench.generator_lag_p99_ms", ms(quantile(lags, 0.99)), "ms")
	res.set("runtime.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/max(1e-9, rt1.totalCPU-rt0.totalCPU), "ratio")
	res.set("runtime.alloc_bytes_per_request", (rt1.allocBytes-rt0.allocBytes)/float64(max(1, len(traced))), "B")
	res.set("slpmatch.cache_hit_ratio", ratio(float64(h1-h0), float64(m1-m0)), "ratio")

	// Ladder rungs, per kind and overall.
	var loops, hops, allocs []float64
	var bytesPerTuple []float64
	var residuals []float64
	res.printf("ladder (median µs over %d sampled requests per kind, %d repeats each):", ladderPerKind, ladderRepeats)
	res.printf("  %-7s %10s %12s %10s %10s %12s %12s", "kind", "library", "handler", "loopback", "coord hop", "lib allocs", "req allocs")
	for _, k := range ladderKinds {
		var libs, hs, ls, cs []time.Duration
		var la, ra []float64
		var enums, sorts []time.Duration
		for _, r := range lad {
			if r.kind != k {
				continue
			}
			libs = append(libs, r.lib)
			hs = append(hs, r.inproc-r.lib)
			ls = append(ls, r.loop-r.inproc)
			cs = append(cs, r.coord-r.loop)
			la, ra = append(la, float64(r.libAllocs)), append(ra, float64(r.inprocAllocs))
			loops = append(loops, us(r.loop-r.inproc))
			hops = append(hops, us(r.coord-r.loop))
			allocs = append(allocs, float64(r.inprocAllocs))
			if r.tuples > 0 && (k == "eval" || k == "stream") {
				bytesPerTuple = append(bytesPerTuple, float64(r.respBytes)/float64(r.tuples))
			}
			enums, sorts = append(enums, r.enumT), append(sorts, r.sortT)
			if k == "eval" && r.whole > 0 {
				// The whole request under load against the sum of its
				// rungs replayed alone: enumerate, sort, handler,
				// loopback (and the coordinator hop in a cluster).
				sum := r.enumT + r.sortT + (r.inproc - r.lib) + (r.loop - r.inproc)
				if s.in.workers > 0 {
					sum += r.coord - r.loop
				}
				residuals = append(residuals, (ms(r.whole)-ms(sum))/ms(r.whole))
			}
		}
		res.set("server.handler_self_us."+k, us(medianDur(hs)), "us")
		res.printf("  %-7s %10.1f %12.1f %10.1f %10.1f %12.0f %12.0f", k, us(medianDur(libs)), us(medianDur(hs)),
			us(medianDur(ls)), us(medianDur(cs)), medianF(la), medianF(ra))
		res.Counters["ladder."+k+".lib_allocs"] = int64(sumF(la))
		res.Counters["ladder."+k+".request_allocs"] = int64(sumF(ra))
		if k == "eval" {
			res.printf("  eval rungs: enumerate %.1f + sort %.1f + handler %.1f + loopback %.1f µs",
				us(medianDur(enums)), us(medianDur(sorts)), us(medianDur(hs)), us(medianDur(ls)))
		}
	}
	res.set("server.loopback_us", medianF(loops), "us")
	res.set("cluster.hop_us", medianF(hops), "us")
	res.set("server.allocs_per_request", medianF(allocs), "count")
	res.set("server.response_bytes_per_tuple", medianF(bytesPerTuple), "B")

	residual := medianF(residuals)
	res.set("ladder.residual_frac", residual, "ratio")
	res.printf("/eval residual: median over %d traced requests of (whole under load - sum of rungs alone) / whole = %.1f%%", len(residuals), 100*residual)
	res.printf("tracing overhead: open-loop p50 %.3f ms untraced, %.3f ms traced (%+.1f%%)", ms(p50u), ms(p50t), 100*(ms(p50t)-ms(p50u))/ms(p50u))

	s.layerSpans(res, tr)
	res.Attempted = len(untraced) + len(traced)
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", res.Workload, res.Seed))
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	res.printf("spans written to %s", path)
	return nil
}

func sumF(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// layerSpans derives the storage and cluster metrics from the wrapper
// spans, and prints per-kind self time of the traced requests.
func (s *session) layerSpans(res *result, tr *tracer) {
	spans := tr.snapshot()
	res.set("storage.append_us", us(medianDur(durations(spans, "storage.append"))), "us")
	res.set("storage.sync_us", us(medianDur(durations(spans, "storage.sync"))), "us")
	appends := len(durations(spans, "storage.append"))
	st := s.sys.nodes[0].backend.Stats()
	res.set("storage.bytes_per_mutation", float64(st.WALAppendedBytes)/float64(max(1, appends)), "B")
	res.set("storage.fsyncs", float64(st.Fsyncs), "count")

	// Worker round trips per request: fan-out, retries (repeated round
	// trips to the same worker path), and round-trip time.
	type key struct{ req, note string }
	perReq := map[string]int{}
	perPath := map[key]int{}
	var rtts []time.Duration
	for _, sp := range spans {
		if sp.Name != "cluster.worker" {
			continue
		}
		perReq[sp.Req]++
		perPath[key{sp.Req, sp.Note}]++
		rtts = append(rtts, sp.dur())
	}
	retries := 0
	for _, n := range perPath {
		retries += n - 1
	}
	var fan []float64
	for _, n := range perReq {
		fan = append(fan, float64(n))
	}
	res.set("cluster.worker_rtt_us", us(medianDur(rtts)), "us")
	res.set("cluster.fanout", sumF(fan)/float64(max(1, len(fan))), "count")
	res.set("cluster.retries", float64(retries), "count")

	// Per-kind self time of the traced load requests: the request span
	// minus the part of it that its storage and worker spans cover.
	reqs := map[int64]span{}
	byReq := map[string]int64{}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "request.") {
			reqs[sp.ID] = sp
			byReq[sp.Req] = sp.ID
		}
	}
	children := map[int64][]span{}
	for _, sp := range spans {
		id := sp.Parent
		if id <= 0 && sp.Name == "cluster.worker" {
			id = byReq[sp.Req]
		}
		if _, ok := reqs[id]; ok && !strings.HasPrefix(sp.Name, "request.") {
			children[id] = append(children[id], sp)
		}
	}
	kinds := map[string][]time.Duration{}
	layer := map[string][]time.Duration{}
	for id, sp := range reqs {
		k := strings.TrimPrefix(sp.Name, "request.")
		covered := coverage(sp, children[id])
		kinds[k] = append(kinds[k], sp.dur()-covered)
		layer[k] = append(layer[k], covered)
	}
	var names []string
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	res.printf("traced load requests: self time outside the storage and worker spans (median µs)")
	for _, k := range names {
		res.printf("  %-15s n=%-5d self %10.1f  storage+workers %10.1f", k, len(kinds[k]), us(medianDur(kinds[k])), us(medianDur(layer[k])))
	}
}

// coverage returns how much of parent's interval the children cover,
// counting overlapping children once.
func coverage(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, end int64
	end = parent.Start
	for _, c := range children {
		start, stop := max(c.Start, end), min(c.End, parent.End)
		if stop > start {
			total += stop - start
			end = stop
		}
	}
	return time.Duration(total)
}
