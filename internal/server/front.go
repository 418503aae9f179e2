package server

// The request front: the one HTTP middleware both spannerd roles — the
// worker Server and the cluster Coordinator — mount every route
// through. It owns request ids, the body cap, the ?timeout= context,
// error rendering, disconnect accounting, the access log, and the
// per-handler request counters and latency histograms. The two roles
// differ only in data (frontSpec: metric names, help texts, the 504
// message); no rule here depends on which role is being served.

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// family is one Prometheus metric family: its name and HELP text.
type family struct{ name, help string }

// frontSpec is what distinguishes one role's front from the other's:
// the role logged on every access-log line, the 504 message, and the
// names of the families the front renders.
type frontSpec struct {
	role       string
	timeoutMsg string

	uptime, inflight, timeouts, disconnects, requests, latency family
}

var workerFront = frontSpec{
	role:        "worker",
	timeoutMsg:  "evaluation deadline exceeded",
	uptime:      family{"spannerd_uptime_seconds", "Time since the server started."},
	inflight:    family{"spannerd_inflight_requests", "Requests currently being served."},
	timeouts:    family{"spannerd_timeouts_total", "Requests cancelled by their deadline."},
	disconnects: family{"spannerd_client_disconnects_total", "Streams aborted because the client went away mid-response."},
	requests:    family{"spannerd_requests_total", "Requests served, by handler and status code."},
	latency:     family{"spannerd_request_duration_seconds", "Wall-clock request latency by handler."},
}

var coordinatorFront = frontSpec{
	role:        "coordinator",
	timeoutMsg:  "cluster fan-out deadline exceeded",
	uptime:      family{"spannerd_coordinator_uptime_seconds", "Time since the coordinator started."},
	inflight:    family{"spannerd_coordinator_inflight_requests", "Requests currently being coordinated."},
	timeouts:    family{"spannerd_coordinator_timeouts_total", "Fan-outs cancelled by their deadline."},
	disconnects: family{"spannerd_coordinator_disconnects_total", "Merged streams aborted by client disconnect."},
	requests:    family{"spannerd_coordinator_requests_total", "Requests served by the coordinator, by handler and status code."},
	latency:     family{"spannerd_coordinator_request_duration_seconds", "Wall-clock coordinator request latency by handler (includes the worker hop)."},
}

// front serves one role's routes. Build it with newFront, mount the
// routes with handle, then serve through ServeHTTP.
type front struct {
	spec       frontSpec
	mux        *http.ServeMux
	logger     *slog.Logger
	maxBody    int64
	timeout    time.Duration
	maxTimeout time.Duration
	start      time.Time

	// routes holds one entry per handler name, sorted by name. It is
	// filled while the routes are mounted and read-only afterwards.
	routes []*route

	inflight     atomic.Int64
	timeouts     atomic.Uint64 // 504s rendered
	disconnects  atomic.Uint64 // responses aborted by the client going away (499)
	syncFailures atomic.Uint64 // mutations applied and logged whose fsync barrier failed
}

// newFront applies the defaults both roles share: a 30s request
// deadline capped at 5m, a 64 MiB body cap, and a discarding logger.
func newFront(spec frontSpec, timeout, maxTimeout time.Duration, maxBody int64, logger *slog.Logger) *front {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if maxTimeout <= 0 {
		maxTimeout = 5 * time.Minute
	}
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	return &front{
		spec:       spec,
		mux:        http.NewServeMux(),
		logger:     logger,
		maxBody:    maxBody,
		timeout:    timeout,
		maxTimeout: maxTimeout,
		start:      time.Now(),
	}
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// route is one handler name's accounting — requests by status code and
// a latency histogram — resolved when the route is mounted, so the
// request path takes no process-wide lock and builds no label key.
type route struct {
	name string
	lat  *histogram

	mu    sync.Mutex
	codes map[int]*atomic.Uint64 // status code -> requests
}

// record accounts one finished request.
func (rt *route) record(code int, d time.Duration) {
	rt.mu.Lock()
	n, ok := rt.codes[code]
	if !ok {
		n = new(atomic.Uint64)
		rt.codes[code] = n
	}
	rt.mu.Unlock()
	n.Add(1)
	rt.lat.observe(d)
}

// counts snapshots the route's status codes, in order, and their counts.
func (rt *route) counts() (codes []int, ns []uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	codes = slices.Sorted(maps.Keys(rt.codes))
	for _, c := range codes {
		ns = append(ns, rt.codes[c].Load())
	}
	return codes, ns
}

// routeFor returns the accounting for a handler name, creating it on
// first use. Names, not patterns: two patterns may share a name.
func (f *front) routeFor(name string) *route {
	i, found := slices.BinarySearchFunc(f.routes, name, func(rt *route, name string) int { return strings.Compare(rt.name, name) })
	if !found {
		f.routes = slices.Insert(f.routes, i, &route{name: name, lat: newHistogram(), codes: map[int]*atomic.Uint64{}})
	}
	return f.routes[i]
}

// handle mounts an error-returning handler under pattern, accounted as
// name.
func (f *front) handle(pattern, name string, h func(http.ResponseWriter, *http.Request) error) {
	rt := f.routeFor(name)
	f.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { f.serve(rt, h, w, r) })
}

// serve runs one request. Every request carries an X-Request-ID — the
// client's if it sent one, freshly minted otherwise — echoed on the
// response, written back into r.Header (so the coordinator's worker
// hops carry it), and logged, so one extraction can be followed across
// the coordinator→worker boundary.
func (f *front) serve(rt *route, h func(http.ResponseWriter, *http.Request) error, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	f.inflight.Add(1)
	defer f.inflight.Add(-1)
	reqID := requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	r.Header.Set("X-Request-ID", reqID)
	sw := &statusWriter{ResponseWriter: w}
	var err error
	if r.ContentLength > f.maxBody {
		// Refused before any handler reads it — on the coordinator, before
		// a worker is contacted. Bodies of undeclared length are cut off
		// at the cap while being read.
		err = bodyErr(&http.MaxBytesError{Limit: f.maxBody})
	} else {
		r.Body = http.MaxBytesReader(w, r.Body, f.maxBody)
		err = h(sw, r)
	}
	if err != nil {
		f.renderError(sw, err)
	}
	if sw.status == 0 {
		sw.status = 200
	}
	d := time.Since(start)
	rt.record(sw.status, d)
	f.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("role", f.spec.role),
		slog.String("handler", rt.name),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Duration("duration", d),
		slog.String("request_id", reqID),
	)
}

// renderError turns a handler's error into a JSON error response: an
// httpError keeps its status, Retry-After and diagnostics; a failed
// durability barrier is a 500 that says the write was applied; an
// expired deadline is a 504 and a cancelled request a 499. Each 504
// rendered adds one to the timeouts counter. Once headers are out (a
// mid-stream failure) there is nothing left to render.
func (f *front) renderError(w *statusWriter, err error) {
	if w.status != 0 {
		return
	}
	var he *httpError
	var sf *syncFailedError
	switch {
	case errors.As(err, &sf):
		f.syncFailures.Add(1)
		he = &httpError{status: 500, message: sf.Error()}
	case errors.As(err, &he):
	case errors.Is(err, context.DeadlineExceeded):
		he = &httpError{status: 504, message: f.spec.timeoutMsg}
	case errors.Is(err, context.Canceled):
		he = &httpError{status: 499, message: "request cancelled"}
	default:
		he = &httpError{status: 500, message: err.Error()}
	}
	if he.status == http.StatusGatewayTimeout {
		f.timeouts.Add(1)
	}
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
	}
	body := map[string]any{"error": he.message}
	if he.diags != nil {
		body["diagnostics"] = he.diags
	}
	writeJSON(w, he.status, body)
}

// bodyErr reports a failed request-body read: a body cut off at the cap
// is a 413, any other read failure a 400.
func bodyErr(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &httpError{status: http.StatusRequestEntityTooLarge, message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
	}
	return errBadRequest("reading body: " + err.Error())
}

// disconnect records that the client went away mid-response: the
// request is logged and counted as a 499, and the handler ends quietly
// (the headers are long gone). Streaming handlers and the coordinator's
// relay and merged streams share it.
func (f *front) disconnect(w http.ResponseWriter) error {
	f.disconnects.Add(1)
	if sw, ok := w.(*statusWriter); ok {
		sw.status = 499
	}
	return nil
}

// requestContext derives a request's working context: the client's
// context plus the default or ?timeout= deadline, capped by the
// maximum. On the coordinator the whole fan-out runs under it.
func (f *front) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := f.timeout
	if t := r.URL.Query().Get("timeout"); t != "" {
		td, err := time.ParseDuration(t)
		if err != nil || td <= 0 {
			return nil, nil, errBadRequest(fmt.Sprintf("bad timeout %q (want a positive Go duration like 250ms)", t))
		}
		d = td
	}
	if d > f.maxTimeout {
		d = f.maxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// writeProm renders the front's families in the Prometheus text format.
func (f *front) writeProm(w io.Writer) {
	s := &f.spec
	writeScalar(w, s.uptime, "gauge", time.Since(f.start).Seconds())
	writeScalar(w, s.inflight, "gauge", f.inflight.Load())
	writeScalar(w, s.timeouts, "counter", f.timeouts.Load())
	writeScalar(w, s.disconnects, "counter", f.disconnects.Load())

	writeFamily(w, s.requests, "counter")
	for _, rt := range f.routes {
		codes, ns := rt.counts()
		for i, c := range codes {
			fmt.Fprintf(w, "%s{handler=%q,code=\"%d\"} %d\n", s.requests.name, rt.name, c, ns[i])
		}
	}
	writeFamily(w, s.latency, "histogram")
	for _, rt := range f.routes {
		if rt.lat.count.Load() > 0 {
			writeHistogram(w, s.latency.name, fmt.Sprintf("handler=%q", rt.name), rt.lat)
		}
	}
}

// varz adds the front's counters to a role's /varz section.
func (f *front) varz(m map[string]any) map[string]any {
	m["uptime"] = time.Since(f.start).String()
	m["inflight"] = f.inflight.Load()
	m["timeouts"] = f.timeouts.Load()
	m["disconnects"] = f.disconnects.Load()
	return m
}

// Request IDs are a random per-process prefix plus a counter: unique
// across a cluster's processes without per-request entropy reads.
var (
	reqIDPrefix = func() string {
		var b [6]byte
		if _, err := crand.Read(b[:]); err != nil {
			return "00deadbeef00"
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDCounter atomic.Uint64
)

// requestID returns the request's X-Request-ID, minting one when the
// client didn't send it. IDs are capped at 128 bytes so a hostile
// header can't bloat every log line it transits.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return reqIDPrefix + "-" + strconv.FormatUint(reqIDCounter.Add(1), 16)
}

// statusWriter records the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = 200
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// FlushError forwards the error-reporting flush that
// http.ResponseController prefers over plain Flush. Without it the
// wrapper would hide flush failures — the one signal that tells a
// streaming handler its client hung up — behind the error-swallowing
// Flusher path.
func (w *statusWriter) FlushError() error {
	switch f := w.ResponseWriter.(type) {
	case interface{ FlushError() error }:
		return f.FlushError()
	case http.Flusher:
		f.Flush()
		return nil
	}
	return http.ErrNotSupported
}

// discardHandler is a slog.Handler that drops everything (slog's
// DiscardHandler arrived in go 1.24; this repo targets 1.23).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
