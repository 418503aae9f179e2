package main

// Tracing from outside the program: spans are recorded around calls
// into each layer's public interfaces — the storage.Backend the server
// is handed, the coordinator's worker-facing http.RoundTripper, and the
// benchmark's own requests. Spans stay in memory and are written out
// when the run ends. With tracing off the wrappers forward directly.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"docspanner"
	"docspanner/internal/storage"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused it (0: none, -1:
// several requests were in flight, so the cause is ambiguous).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans while on.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu       sync.Mutex
	spans    []span
	inflight map[int64]string // request span ID -> request ID
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inflight: map[int64]string{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// begin opens a request span; end closes it. Layer spans recorded while
// exactly one request is open are attributed to it.
func (t *tracer) begin(req string) int64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.inflight[id] = req
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64, name, req string, start, stop time.Time) {
	t.mu.Lock()
	delete(t.inflight, id)
	t.spans = append(t.spans, span{ID: id, Name: name, Req: req, Start: t.ns(start), End: t.ns(stop)})
	t.mu.Unlock()
}

// record stores a layer span. When req is empty the parent is the one
// in-flight request, if there is exactly one.
func (t *tracer) record(name, req, note string, start, stop time.Time) {
	id := t.ids.Add(1)
	t.mu.Lock()
	var parent int64
	if req == "" {
		switch len(t.inflight) {
		case 0:
		case 1:
			for pid, r := range t.inflight {
				parent, req = pid, r
			}
		default:
			parent = -1
		}
	} else {
		for pid, r := range t.inflight {
			if r == req {
				parent = pid
			}
		}
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Note: note, Start: t.ns(start), End: t.ns(stop)})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations of the spans with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// timedBackend wraps the storage.Backend handed to server.Config: log
// appends become "storage.append" spans and commit barriers
// "storage.sync" spans.
type timedBackend struct {
	storage.Backend
	tr *tracer
}

func (b *timedBackend) time(name string, f func() error) error {
	if !b.tr.on.Load() {
		return f()
	}
	start := time.Now()
	err := f()
	b.tr.record(name, "", "", start, time.Now())
	return err
}

func (b *timedBackend) PutDoc(name string, data []byte, doc *docspanner.Document, compressed bool, version int, updated time.Time) error {
	return b.time("storage.append", func() error {
		return b.Backend.PutDoc(name, data, doc, compressed, version, updated)
	})
}

func (b *timedBackend) EditDoc(name, expr string, doc *docspanner.Document, version int, updated time.Time) error {
	return b.time("storage.append", func() error { return b.Backend.EditDoc(name, expr, doc, version, updated) })
}

func (b *timedBackend) DeleteDoc(name string) error {
	return b.time("storage.append", func() error { return b.Backend.DeleteDoc(name) })
}

func (b *timedBackend) PutQuery(name string, spec []byte, registered time.Time) error {
	return b.time("storage.append", func() error { return b.Backend.PutQuery(name, spec, registered) })
}

func (b *timedBackend) DeleteQuery(name string) error {
	return b.time("storage.append", func() error { return b.Backend.DeleteQuery(name) })
}

func (b *timedBackend) PutView(doc, query string) error {
	return b.time("storage.append", func() error { return b.Backend.PutView(doc, query) })
}

func (b *timedBackend) DeleteView(doc, query string) error {
	return b.time("storage.append", func() error { return b.Backend.DeleteView(doc, query) })
}

func (b *timedBackend) Sync() error {
	return b.time("storage.sync", b.Backend.Sync)
}

// timedTransport wraps the coordinator's worker-facing transport: each
// worker round trip becomes a "cluster.worker" span keyed by the
// X-Request-ID the coordinator propagates, ending when the worker's
// response body is closed.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req := r.Header.Get("X-Request-ID")
	if !t.tr.on.Load() || req == "" {
		return t.base.RoundTrip(r)
	}
	note := r.URL.String()
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.record("cluster.worker", req, note, start, time.Now())
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.tr.record("cluster.worker", req, note, start, time.Now()) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
