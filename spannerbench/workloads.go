package main

// The four workloads: their generated inputs, how a system is set up
// from them, and what the oracle expects. See README.md for why each
// workload was chosen.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"docspanner"
	"docspanner/internal/storage"
)

// builtDoc is a large compressed document built at setup by CDE edits
// (doublings with inserts), never sent as text.
type builtDoc struct {
	name   string
	exprs  []string
	length int64
}

// inputs is everything a workload sends, generated from the seed.
type inputs struct {
	plain      []docSpec // PUT as text
	compressed []docSpec // PUT ?compress=1
	built      []builtDoc
	warm       []dq            // POST /docs/{doc}/warm?query= at setup
	view       *dq             // live view registered at setup
	newLane    func() *editSeq // the edit lane's sequence, from its start
	ops        []op
	workers    int  // > 0: a coordinator in front of this many workers
	disk       bool // disk backend, fsync=interval
	limits     []int
	allDocs    []string // documents a merged stream covers
}

// workload is one named traffic mix.
type workload struct {
	name string
	gen  func(seed uint64) *inputs
}

var workloads = []workload{
	{"read-plain", genReadPlain},
	{"read-compressed", genReadCompressed},
	{"write-mix", genWriteMix},
	{"cluster-fanout", genClusterFanout},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deck deals items in seeded shuffled rounds, so every item appears
// equally often over a round.
type deck[T any] struct {
	r     *rand.Rand
	items []T
	i     int
}

func newDeck[T any](r *rand.Rand, items []T) *deck[T] {
	d := &deck[T]{r: r, items: append([]T(nil), items...)}
	d.i = len(d.items)
	return d
}

func (d *deck[T]) deal() T {
	if d.i == len(d.items) {
		d.r.Shuffle(len(d.items), func(i, j int) { d.items[i], d.items[j] = d.items[j], d.items[i] })
		d.i = 0
	}
	d.i++
	return d.items[d.i-1]
}

// blocks generates n blocks of operations; each block holds the given
// kinds in a seeded order, and make fills in one operation of a kind.
func blocks(r *rand.Rand, n int, mix map[string]int, order []string, make func(kind string) op) []op {
	var kinds []string
	for _, k := range order {
		for i := 0; i < mix[k]; i++ {
			kinds = append(kinds, k)
		}
	}
	var ops []op
	for b := 0; b < n; b++ {
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			ops = append(ops, make(k))
		}
	}
	return ops
}

// batcher deals batches of documents with one document from each size
// stratum (documents sorted by size, cut into k strata), so every batch
// holds about the same amount of text whatever the seed.
type batcher struct{ strata []*deck[string] }

func newBatcher(r *rand.Rand, docs []docSpec, k int) *batcher {
	sorted := append([]docSpec(nil), docs...)
	sort.SliceStable(sorted, func(i, j int) bool { return len(sorted[i].data) < len(sorted[j].data) })
	b := &batcher{}
	per := len(sorted) / k
	for i := 0; i < k; i++ {
		b.strata = append(b.strata, newDeck(r, names(sorted[i*per:(i+1)*per])))
	}
	return b
}

func (b *batcher) deal() []string {
	out := make([]string, len(b.strata))
	for i, d := range b.strata {
		out[i] = d.deal()
	}
	return out
}

func names(docs []docSpec) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.name
	}
	return out
}

func pairs(docs []string, qs []string) []dq {
	var out []dq
	for _, d := range docs {
		for _, q := range qs {
			out = append(out, dq{d, q})
		}
	}
	return out
}

var allQueries = []string{"dense", "sel", "core"}
var regularQueries = []string{"dense", "sel"}

// build plans a large document: base doubled until it reaches target
// bytes, with a factor of src inserted after every doubling so the
// grammar is not a pure power.
func build(r *rand.Rand, name string, base, src docSpec, target int64) builtDoc {
	b := builtDoc{name: name, exprs: []string{fmt.Sprintf("concat(%s, %s)", base.name, base.name)}, length: 2 * int64(len(base.data))}
	for b.length < target {
		m := int64(32 + r.IntN(225))
		i := 1 + r.Int64N(int64(len(src.data))-m)
		k := 1 + r.Int64N(b.length)
		b.exprs = append(b.exprs,
			fmt.Sprintf("insert(%s, extract(%s, %d, %d), %d)", name, src.name, i, i+m-1, k),
			fmt.Sprintf("concat(%s, %s)", name, name))
		b.length = 2 * (b.length + m)
	}
	return b
}

// genReadPlain: eval, stream, count and batch over 32 plain documents
// of 4–64 KiB, half random ab text and half log-like.
func genReadPlain(seed uint64) *inputs {
	in := &inputs{plain: plainCorpus(seed, "p", 32, 4<<10, 64<<10)}
	r := newRand(structureSeed, "ops/read-plain")
	docs := names(in.plain)
	dqs := newDeck(r, pairs(docs, allQueries))
	batches := newBatcher(r, in.plain, 4)
	content := newDeck(r, []bool{true, false})
	in.ops = blocks(r, 200, map[string]int{"eval": 7, "stream": 5, "count": 5, "batch": 3}, []string{"eval", "stream", "count", "batch"}, func(k string) op {
		p := dqs.deal()
		o := op{kind: k, doc: p.doc, query: p.query, content: content.deal()}
		if k == "batch" {
			o.doc, o.docs = "", batches.deal()
		}
		return o
	})
	return in
}

// genReadCompressed: the same queries over SLP-compressed documents —
// eight 4–16 KiB bases ingested with ?compress=1, and four documents
// of 1–16 MiB built from them by CDE doublings and warmed at setup.
func genReadCompressed(seed uint64) *inputs {
	in := &inputs{compressed: plainCorpus(seed, "c", 8, 4<<10, 16<<10)}
	r := newRand(seed, "build/read-compressed")
	for i, target := range []int64{1 << 20, 2 << 20, 4 << 20, 16 << 20} {
		// Log-like bases (odd indices), where both regular queries are
		// sparse enough that counting the whole document stays cheap.
		base, src := in.compressed[2*i+1], in.compressed[(2*i+3)%8]
		in.built = append(in.built, build(r, fmt.Sprintf("L%d", i), base, src, target))
	}
	var large []string
	for _, b := range in.built {
		large = append(large, b.name)
	}
	for _, d := range large {
		for _, q := range regularQueries {
			in.warm = append(in.warm, dq{d, q})
		}
	}
	in.limits = []int{1, 10, 100, 1000}
	small := names(in.compressed)
	r = newRand(structureSeed, "ops/read-compressed")
	countDeck := newDeck(r, large)
	streamDeck := newDeck(r, pairs(large, regularQueries))
	smallDeck := newDeck(r, pairs(small, allQueries))
	batches := newBatcher(r, in.compressed, 4)
	limits := newDeck(r, in.limits)
	content := newDeck(r, []bool{true, false})
	in.ops = blocks(r, 200, map[string]int{"count": 5, "stream": 5, "eval": 6, "batch": 4}, []string{"count", "stream", "eval", "batch"}, func(k string) op {
		switch k {
		case "count":
			return op{kind: k, doc: countDeck.deal(), query: "sel"}
		case "stream":
			p := streamDeck.deal()
			return op{kind: k, doc: p.doc, query: p.query, limit: limits.deal()}
		}
		p := smallDeck.deal()
		o := op{kind: k, doc: p.doc, query: p.query, content: content.deal()}
		if k == "batch" {
			o.doc, o.docs = "", batches.deal()
		}
		return o
	})
	return in
}

// genWriteMix: ~70% mutations — plain PUTs of 4–64 KiB, compressed PUTs
// of 4–16 KiB, and CDE edits of a ~1 MiB compressed document with one
// live view — and ~30% view reads, /changes and small evals, on a disk
// backend with fsync=interval.
func genWriteMix(seed uint64) *inputs {
	in := &inputs{disk: true, plain: plainCorpus(seed, "s", 8, 4<<10, 16<<10)}
	// Log-like bases keep the view's result small (the selective query
	// matches rare error lines), so a refresh diffs hundreds of tuples.
	corpus := plainCorpus(seed, "w", 4, 8<<10, 12<<10)
	bases := []docSpec{corpus[1], corpus[3]}
	in.compressed = bases
	r := newRand(seed, "build/write-mix")
	big := build(r, "big", bases[0], bases[1], 1<<20)
	in.built = []builtDoc{big}
	in.view = &dq{"big", "sel"}
	in.warm = []dq{{"big", "sel"}}
	in.newLane = func() *editSeq {
		return newEditSeq(seed, "write-mix", "big", bases[1].name, big.length, int64(len(bases[1].data)))
	}
	puts := plainCorpus(seed, "put", 12, 4<<10, 64<<10)
	cputs := plainCorpus(seed, "cput", 8, 4<<10, 16<<10)
	r = newRand(structureSeed, "ops/write-mix")
	putDeck, cputDeck := newDeck(r, puts), newDeck(r, cputs)
	small := newDeck(r, pairs(names(in.plain), allQueries))
	content := newDeck(r, []bool{true, false})
	n := 0
	in.ops = blocks(r, 200, map[string]int{"put": 6, "put-compressed": 2, "edit": 6, "view-get": 1, "changes": 1, "eval": 2, "stream": 2},
		[]string{"put", "put-compressed", "edit", "view-get", "changes", "eval", "stream"}, func(k string) op {
			n++
			switch k {
			case "put":
				return op{kind: k, doc: fmt.Sprintf("wp%02d", n%6), body: putDeck.deal().data}
			case "put-compressed":
				return op{kind: k, doc: fmt.Sprintf("wz%02d", n%4), body: cputDeck.deal().data}
			case "edit":
				return op{kind: k, doc: "big"}
			case "view-get", "changes":
				return op{kind: k, doc: "big", query: "sel"}
			}
			p := small.deal()
			return op{kind: k, doc: p.doc, query: p.query, content: content.deal()}
		})
	return in
}

// genClusterFanout: a coordinator over two memory-backed workers;
// merged cross-document streams, /batch across both shards, and routed
// single-document eval and count.
func genClusterFanout(seed uint64) *inputs {
	in := &inputs{workers: 2, plain: plainCorpus(seed, "k", 16, 4<<10, 16<<10)}
	docs := names(in.plain)
	in.allDocs = docs
	in.limits = []int{10, 100}
	r := newRand(structureSeed, "ops/cluster-fanout")
	dqs := newDeck(r, pairs(docs, allQueries))
	qDeck := newDeck(r, allQueries)
	batches := newBatcher(r, in.plain, 4)
	limits := newDeck(r, in.limits)
	content := newDeck(r, []bool{true, false})
	in.ops = blocks(r, 200, map[string]int{"stream": 3, "batch": 3, "eval": 7, "count": 7}, []string{"stream", "batch", "eval", "count"}, func(k string) op {
		switch k {
		case "stream":
			return op{kind: k, query: qDeck.deal(), docs: []string{"*"}, limit: limits.deal(), content: content.deal()}
		case "batch":
			return op{kind: k, query: qDeck.deal(), content: content.deal(), docs: batches.deal()}
		}
		p := dqs.deal()
		return op{kind: k, doc: p.doc, query: p.query, content: content.deal()}
	})
	return in
}

// buildOracle computes the expected answers of every (document, query)
// pair the inputs touch, with the library alone.
func buildOracle(in *inputs) (*oracle, error) {
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	for _, d := range in.plain {
		o.addPlain(d.name, d.data, in.workers > 0)
	}
	db := docspanner.NewDocDB()
	for _, d := range in.compressed {
		doc := docspanner.CompressDocument(d.data)
		db.Add(d.name, doc)
		if err := o.addCompressed(d.name, doc); err != nil {
			return nil, err
		}
	}
	for _, b := range in.built {
		doc, err := applyExprs(db, b)
		if err != nil {
			return nil, err
		}
		if err := o.addBuilt(b.name, doc, in.limits, 2<<20); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func applyExprs(db *docspanner.DocDB, b builtDoc) (*docspanner.Document, error) {
	var doc *docspanner.Document
	for _, e := range b.exprs {
		var err error
		if doc, err = db.Edit(b.name, e); err != nil {
			return nil, fmt.Errorf("build %s: %s: %w", b.name, e, err)
		}
	}
	if doc.Len() != b.length {
		return nil, fmt.Errorf("build %s: %d bytes, planned %d", b.name, doc.Len(), b.length)
	}
	return doc, nil
}

// setup boots a system and loads the inputs into it: documents, the
// three queries, built documents, the live view, and index warm-up.
// It returns the system and the request-body bytes it sent.
func setup(in *inputs, tr *tracer, scratch string) (*system, int64, error) {
	var dir string
	backend := func() (storage.Backend, error) { return storage.NewMemory(), nil }
	if in.disk {
		var err error
		if dir, err = os.MkdirTemp(scratch, "data-"); err != nil {
			return nil, 0, err
		}
		backend = func() (storage.Backend, error) { return openDisk(dir) }
	}
	sys, err := boot(tr, in.workers, backend)
	if err != nil {
		return nil, 0, err
	}
	sys.dataDir = dir
	var sent int64
	call := func(method, path string, body []byte) error {
		sent += int64(len(body))
		return sys.call(method, path, body, nil)
	}
	err = func() error {
		for _, q := range queries {
			if err := call("PUT", "/queries/"+q.name, []byte(querySpecJSON(q))); err != nil {
				return err
			}
		}
		for _, d := range in.plain {
			if err := call("PUT", "/docs/"+d.name, d.data); err != nil {
				return err
			}
		}
		for _, d := range in.compressed {
			if err := call("PUT", "/docs/"+d.name+"?compress=1", d.data); err != nil {
				return err
			}
		}
		for _, b := range in.built {
			for _, e := range b.exprs {
				if err := call("POST", "/docs/"+b.name+"/edit", []byte(fmt.Sprintf(`{"expr": %q}`, e))); err != nil {
					return err
				}
			}
		}
		if in.view != nil {
			if err := call("PUT", "/docs/"+in.view.doc+"/views/"+in.view.query, nil); err != nil {
				return err
			}
		}
		for _, w := range in.warm {
			if err := call("POST", "/docs/"+w.doc+"/warm?query="+w.query, nil); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		sys.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return sys, sent, nil
}

func openDisk(dir string) (storage.Backend, error) {
	return storage.OpenDisk(storage.DiskOptions{Dir: dir, Fsync: storage.FsyncInterval, FsyncInterval: 100 * time.Millisecond})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
