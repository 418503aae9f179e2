package main

// Layer probes of the traced run: each layer's public functions called
// directly on the workload's own inputs — the plain enumerator and sort
// on its documents, compilation of its queries, compression and
// balancing of its texts, CDE edits and incremental warm-up on a
// document built from its corpus (for write-mix, its own edited
// document and edit sequence), and the same edit sequence through the
// server with and without a live view.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"docspanner"
	"docspanner/internal/qsyntax"
)

const probeEdits = 32

// probeCorpus returns up to n of the workload's documents of at most
// maxLen bytes, in input order.
func (s *session) probeCorpus(n, maxLen int) []docSpec {
	var out []docSpec
	for _, d := range append(append([]docSpec(nil), s.in.plain...), s.in.compressed...) {
		if len(d.data) <= maxLen && len(out) < n {
			out = append(out, d)
		}
	}
	return out
}

// probeDoc plans the probe's ~1 MiB compressed document from two small
// documents and returns it with its edit sequence; names are prefixed
// so the document can also be loaded into the running server.
func (s *session) probeDoc(prefix string) (docSpec, docSpec, builtDoc, *editSeq) {
	var base, src docSpec
	stream := "probe"
	if s.in.newLane != nil {
		base, src, stream = s.in.compressed[0], s.in.compressed[1], "write-mix"
	} else {
		// Log-like texts, as write-mix edits: the view's result stays
		// small, so the probe times the refresh, not a large diff.
		var c []docSpec
		for _, d := range s.probeCorpus(32, 16<<10) {
			if bytes.IndexByte(d.data, '\n') >= 0 {
				c = append(c, d)
			}
		}
		base, src = c[0], c[1]
	}
	base.name, src.name = prefix+"a", prefix+"b"
	// For write-mix this is the plan its own document was built with,
	// under other names.
	b := build(newRand(s.seed, "build/"+stream), prefix+"doc", base, src, 1<<20)
	seq := newEditSeq(s.seed, stream, b.name, src.name, b.length, int64(len(src.data)))
	return base, src, b, seq
}

func (s *session) probe(res *result) error {
	// Plain enumeration and sort on the documents of sampled evals.
	var firsts, enums, sorts []time.Duration
	var enumAllocs, sortAllocs, tuples float64
	n := 0
	for _, o := range s.in.ops {
		if o.kind != "eval" || s.or.bytes[o.doc] == nil || n == ladderPerKind {
			continue
		}
		n++
		for r := 0; r < ladderRepeats; r++ {
			k, first, e, st, err := s.enumerate(&o, s.or.bytes[o.doc], nil)
			if err != nil {
				return err
			}
			if k > 0 {
				firsts = append(firsts, first)
			}
			enums, sorts = append(enums, e), append(sorts, st)
		}
		q, text := s.or.qs[o.query], s.or.bytes[o.doc]
		var ts []docspanner.Tuple
		if q.DistinctEnumeration() {
			enumAllocs += float64(allocsOf(func() {
				ts = ts[:0]
				q.Enumerate(text, func(t docspanner.Tuple) bool { ts = append(ts, t); return true })
			}))
			sortAllocs += float64(allocsOf(func() { docspanner.SortTuples(ts) }))
			tuples += float64(len(ts))
		}
	}
	res.set("enum.first_tuple_us", us(medianDur(firsts)), "us")
	res.set("enum.enumerate_us", us(medianDur(enums)), "us")
	res.set("enum.allocs_per_tuple", enumAllocs/max(1, tuples), "count")
	res.set("spans.sort_us", us(medianDur(sorts)), "us")
	res.set("spans.allocs_per_tuple", sortAllocs/max(1, tuples), "count")
	res.Counters["probe.enum_allocs"] = int64(enumAllocs)
	res.Counters["probe.sort_allocs"] = int64(sortAllocs)

	// Planning: parse, compile and plan each query as registration does.
	var compiles []time.Duration
	for r := 0; r < 3; r++ {
		for _, q := range queries {
			t := time.Now()
			cq, err := qsyntax.Parse(q.src, docspanner.Options{Alphabet: []byte(alphabet)})
			if err != nil {
				return err
			}
			_ = cq.Streaming()
			compiles = append(compiles, time.Since(t))
		}
	}
	res.set("plan.compile_ms", ms(medianDur(compiles)), "ms")
	var cores []time.Duration
	for _, d := range s.probeCorpus(6, 64<<10) {
		t := time.Now()
		s.or.qs["core"].Eval(d.data)
		cores = append(cores, time.Since(t))
	}
	res.set("plan.core_eval_us", us(medianDur(cores)), "us")

	// Compression and balancing per KiB of the workload's texts.
	var cT, bT time.Duration
	var cKiB, bKiB float64
	for _, d := range s.probeCorpus(3, 16<<10) {
		t := time.Now()
		docspanner.CompressDocument(d.data)
		cT += time.Since(t)
		cKiB += float64(len(d.data)) / 1024
	}
	for _, d := range s.probeCorpus(8, 64<<10) {
		t := time.Now()
		docspanner.DocumentFromBytes(d.data)
		bT += time.Since(t)
		bKiB += float64(len(d.data)) / 1024
	}
	res.set("slp.compress_ms_per_kib", ms(cT)/max(1e-9, cKiB), "ms/KiB")
	res.set("slp.balance_ms_per_kib", ms(bT)/max(1e-9, bKiB), "ms/KiB")

	if err := s.probeEdits(res); err != nil {
		return err
	}
	if err := s.probeViews(res); err != nil {
		return err
	}
	return nil
}

// probeEdits builds the probe document in the library, warms the
// selective query's index on it cold, enumerates the dense query on it,
// and runs the edit sequence with incremental warm-up.
func (s *session) probeEdits(res *result) error {
	base, src, b, seq := s.probeDoc("lib-")
	db := docspanner.NewDocDB()
	db.Add(base.name, docspanner.CompressDocument(base.data))
	db.Add(src.name, docspanner.CompressDocument(src.data))
	doc, err := applyExprs(db, b)
	if err != nil {
		return err
	}
	ix, err := s.or.qs["sel"].Index()
	if err != nil {
		return err
	}
	t := time.Now()
	ix.Warm(doc)
	res.set("slpmatch.warm_ms", ms(time.Since(t)), "ms")

	edoc, err := s.enumProbeDoc()
	if err != nil {
		return err
	}
	const maxTuples = 100000
	var first time.Duration
	n := 0
	t = time.Now()
	err = s.or.qs["dense"].EnumerateCompressedContext(context.Background(), edoc, func(docspanner.Tuple) bool {
		if n == 0 {
			first = time.Since(t)
		}
		n++
		return n < maxTuples
	})
	total := time.Since(t)
	if err != nil {
		return err
	}
	res.set("slpmatch.first_tuple_us", us(first), "us")
	res.set("slpmatch.ns_per_tuple", float64((total-first).Nanoseconds())/float64(max(1, n-1)), "ns")

	var edits, sizes []time.Duration
	var recomputed uint64
	prev := doc
	for i := 0; i < probeEdits; i++ {
		e := seq.next()
		t := time.Now()
		cur, err := db.Edit(b.name, e)
		edits = append(edits, time.Since(t))
		if err != nil {
			return fmt.Errorf("probe edit %s: %w", e, err)
		}
		t = time.Now()
		cur.GrammarSize()
		sizes = append(sizes, time.Since(t))
		st := ix.WarmDelta(prev, cur)
		recomputed += uint64(st.Recomputed)
		prev = cur
	}
	res.set("slp.edit_us", us(medianDur(edits)), "us")
	res.set("slp.grammar_size_us", us(medianDur(sizes)), "us")
	res.set("slp.grammar_ratio", float64(prev.GrammarSize())/float64(prev.Len()), "ratio")
	res.set("slpmatch.recomputed_nodes_per_edit", float64(recomputed)/probeEdits, "count")
	res.Counters["probe.recomputed_nodes"] = int64(recomputed)
	res.Counters["probe.grammar_size"] = int64(prev.GrammarSize())
	return nil
}

// enumProbeDoc builds the compressed enumeration probe's document: the
// workload's first random ab text of at most 16 KiB, compressed and
// doubled to 256 KiB, on which the dense query has ~64k tuples.
func (s *session) enumProbeDoc() (*docspanner.Document, error) {
	for _, d := range s.probeCorpus(32, 16<<10) {
		if bytes.IndexByte(d.data, '\n') >= 0 {
			continue
		}
		db := docspanner.NewDocDB()
		db.Add("e", docspanner.CompressDocument(d.data))
		doc, err := db.Edit("e", "concat(e, e)")
		for err == nil && doc.Len() < 256<<10 {
			doc, err = db.Edit("e", "concat(e, e)")
		}
		return doc, err
	}
	return nil, fmt.Errorf("probe: the workload has no ab text of at most 16 KiB")
}

// probeViews loads the probe document into the running server and
// times the same edit sequence through ServeHTTP without and then with
// a live view on the selective query.
func (s *session) probeViews(res *result) error {
	h := s.sys.nodes[0].srv
	do := func(method, path string, body []byte) (time.Duration, []byte, error) {
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		d := time.Since(t)
		if rec.Code/100 != 2 {
			return d, nil, fmt.Errorf("probe %s %s: HTTP %d: %.200s", method, path, rec.Code, rec.Body.Bytes())
		}
		return d, rec.Body.Bytes(), nil
	}
	base, src, b, seq := s.probeDoc("probe-")
	for _, d := range []docSpec{base, src} {
		if _, _, err := do("PUT", "/docs/"+d.name+"?compress=1", d.data); err != nil {
			return err
		}
	}
	for _, e := range b.exprs {
		if _, _, err := do("POST", "/docs/"+b.name+"/edit", []byte(fmt.Sprintf(`{"expr": %q}`, e))); err != nil {
			return err
		}
	}
	edit := func() (time.Duration, error) {
		d, _, err := do("POST", "/docs/"+b.name+"/edit", []byte(fmt.Sprintf(`{"expr": %q}`, seq.next())))
		return d, err
	}
	var without, with []time.Duration
	for i := 0; i < probeEdits; i++ {
		d, err := edit()
		if err != nil {
			return err
		}
		without = append(without, d)
	}
	if _, _, err := do("PUT", "/docs/"+b.name+"/views/sel", nil); err != nil {
		return err
	}
	scrape := func() (map[string]float64, error) {
		_, body, err := do("GET", "/metrics", nil)
		return parseProm(body, ""), err
	}
	before, err := scrape()
	if err != nil {
		return err
	}
	for i := 0; i < probeEdits; i++ {
		d, err := edit()
		if err != nil {
			return err
		}
		with = append(with, d)
	}
	after, err := scrape()
	if err != nil {
		return err
	}
	res.set("views.refresh_us", us(medianDur(with)-medianDur(without)), "us")
	reused := after["spannerd_warm_reused_nodes_total"] - before["spannerd_warm_reused_nodes_total"]
	recomputed := after["spannerd_warm_recomputed_nodes_total"] - before["spannerd_warm_recomputed_nodes_total"]
	res.set("views.reuse_ratio", ratio(reused, recomputed), "ratio")
	for _, name := range []string{b.name, base.name, src.name} {
		if _, _, err := do("DELETE", "/docs/"+name, nil); err != nil {
			return err
		}
	}
	return nil
}
