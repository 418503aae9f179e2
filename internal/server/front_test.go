package server

// Tests of the request front both roles mount their routes through:
// one table drives a worker Server and a Coordinator fronting it, the
// metric families of both roles are pinned, and the per-request
// accounting is held allocation-free.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// requests reads the handler's request counter for one status code.
func (f *front) requests(handler string, code int) uint64 {
	for _, rt := range f.routes {
		if rt.name == handler {
			codes, ns := rt.counts()
			if i := slices.Index(codes, code); i >= 0 {
				return ns[i]
			}
		}
	}
	return 0
}

// TestFrontAccountingAllocs gates the per-request accounting of a
// mounted route — the status counter and the latency histogram — at
// zero allocations: no formatted label key.
func TestFrontAccountingAllocs(t *testing.T) {
	f := newFront(workerFront, 0, 0, 0, nil)
	f.handle("GET /x", "x", func(http.ResponseWriter, *http.Request) error { return nil })
	rt := f.routeFor("x")
	rt.record(200, time.Millisecond)
	rt.record(404, time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		rt.record(200, 250*time.Microsecond)
		rt.record(404, 3*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("per-request accounting allocates %.1f times, want 0", allocs)
	}
	if got := f.requests("x", 200); got < 1001 {
		t.Fatalf("x 200 = %d, want >= 1001", got)
	}
}

// TestFrontRoutesShareNames: two patterns mounted under one handler
// name count into one series.
func TestFrontRoutesShareNames(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "GET", "/views", "")
	do(t, s, "PUT", "/docs/d", "ab")
	do(t, s, "GET", "/docs/d/views", "")
	if got := s.front.requests("views.list", 200); got != 2 {
		t.Fatalf("views.list 200 = %d, want 2", got)
	}
}

var (
	seriesRe    = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? `)
	labelNameRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
)

// metricShape reduces a Prometheus exposition to what clients depend
// on: every HELP and TYPE line, and each series name with its label
// names. Values and label values are dropped.
func metricShape(text string) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			seen[line] = true
			continue
		}
		m := seriesRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var names []string
		for _, l := range labelNameRe.FindAllStringSubmatch(m[3], -1) {
			names = append(names, l[1])
		}
		seen[m[1]+"{"+strings.Join(names, ",")+"}"] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMetricFamiliesPinned pins both roles' /metrics: every family
// name, label set, and HELP/TYPE line, as they were before the two
// roles shared one front.
func TestMetricFamiliesPinned(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{ProbeInterval: 20 * time.Millisecond})
	tc.json(t, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	d0 := tc.docOwnedBy(t, 0, "m0")
	tc.json(t, "PUT", "/docs/"+d0, "abab")
	tc.json(t, "PUT", "/docs/"+d0+"/views/q", "")
	tc.json(t, "GET", "/eval?query=q&doc="+d0, "")
	tc.request(t, "GET", "/stream?query=q&doc="+d0, "")
	tc.waitWorkersUp(t, 2)

	for _, c := range []struct {
		role string
		url  string
		want []string
	}{
		{"worker", tc.workers[0].url, []string{
			"# HELP spannerd_client_disconnects_total Streams aborted because the client went away mid-response.",
			"# HELP spannerd_documents Documents in the store.",
			"# HELP spannerd_inflight_requests Requests currently being served.",
			"# HELP spannerd_matrix_cache_cores Live shared slpmatch cores (one per automaton in use).",
			"# HELP spannerd_matrix_cache_hit_rate slpmatch matrix-cache hit rate since process start.",
			"# HELP spannerd_matrix_cache_hits_total slpmatch per-SLP-node matrix cache hits (process-wide).",
			"# HELP spannerd_matrix_cache_misses_total slpmatch per-SLP-node matrix cache misses (process-wide).",
			"# HELP spannerd_plan_cache_hit_rate Plan-cache hit rate since process start.",
			"# HELP spannerd_plan_cache_hits_total Plan-cache hits (process-wide).",
			"# HELP spannerd_plan_cache_misses_total Plan-cache misses (process-wide).",
			"# HELP spannerd_queries Prepared queries in the registry.",
			"# HELP spannerd_query_duration_seconds Evaluation latency by prepared query and request kind.",
			"# HELP spannerd_rejected_total Requests refused by the concurrency limiter.",
			"# HELP spannerd_request_duration_seconds Wall-clock request latency by handler.",
			"# HELP spannerd_requests_total Requests served, by handler and status code.",
			"# HELP spannerd_storage_info The active storage backend (1 = this backend).",
			"# HELP spannerd_storage_recovered_records WAL records replayed on top of the snapshot at the last open.",
			"# HELP spannerd_storage_recovered_torn_tail Whether the last open truncated a torn final record (a crash mid-append).",
			"# HELP spannerd_storage_snapshot_age_seconds Seconds since the newest snapshot (-1 when none exists).",
			"# HELP spannerd_storage_snapshot_bytes Size of the newest snapshot (grammar-sized, not document-sized).",
			"# HELP spannerd_storage_snapshots_total Snapshots written since open.",
			"# HELP spannerd_storage_sync_failures_total Mutations applied and logged whose durability barrier (fsync) failed; the write is visible but its on-disk persistence is uncertain.",
			"# HELP spannerd_timeouts_total Requests cancelled by their deadline.",
			"# HELP spannerd_tuples_total Result tuples emitted, by prepared query and request kind.",
			"# HELP spannerd_uptime_seconds Time since the server started.",
			"# HELP spannerd_view_refresh_duration_seconds Incremental view refresh latency (WarmDelta + count + materialization) by view.",
			"# HELP spannerd_view_refreshes_total Incremental view refreshes performed (version-stale skips excluded).",
			"# HELP spannerd_views Live materialized (doc, query) views.",
			"# HELP spannerd_wal_appended_bytes_total Bytes appended to the write-ahead log since open.",
			"# HELP spannerd_wal_fsync_max_seconds Slowest single fsync since open.",
			"# HELP spannerd_wal_fsync_seconds_total Cumulative time spent in fsync.",
			"# HELP spannerd_wal_fsyncs_total fsync calls issued by the durability barrier.",
			"# HELP spannerd_wal_records_total Mutation records appended to the write-ahead log since open.",
			"# HELP spannerd_wal_size_bytes Size of the live (post-rotation) log file.",
			"# HELP spannerd_warm_memo_reuse_ratio Fraction of WarmDelta-visited nodes served from the memo since process start.",
			"# HELP spannerd_warm_recomputed_nodes_total SLP nodes recomputed by incremental WarmDelta calls (the edit spines).",
			"# HELP spannerd_warm_reused_nodes_total Cached subtree roots WarmDelta pruned at instead of recomputing.",
			"# TYPE spannerd_client_disconnects_total counter",
			"# TYPE spannerd_documents gauge",
			"# TYPE spannerd_inflight_requests gauge",
			"# TYPE spannerd_matrix_cache_cores gauge",
			"# TYPE spannerd_matrix_cache_hit_rate gauge",
			"# TYPE spannerd_matrix_cache_hits_total counter",
			"# TYPE spannerd_matrix_cache_misses_total counter",
			"# TYPE spannerd_plan_cache_hit_rate gauge",
			"# TYPE spannerd_plan_cache_hits_total counter",
			"# TYPE spannerd_plan_cache_misses_total counter",
			"# TYPE spannerd_queries gauge",
			"# TYPE spannerd_query_duration_seconds histogram",
			"# TYPE spannerd_rejected_total counter",
			"# TYPE spannerd_request_duration_seconds histogram",
			"# TYPE spannerd_requests_total counter",
			"# TYPE spannerd_storage_info gauge",
			"# TYPE spannerd_storage_recovered_records gauge",
			"# TYPE spannerd_storage_recovered_torn_tail gauge",
			"# TYPE spannerd_storage_snapshot_age_seconds gauge",
			"# TYPE spannerd_storage_snapshot_bytes gauge",
			"# TYPE spannerd_storage_snapshots_total counter",
			"# TYPE spannerd_storage_sync_failures_total counter",
			"# TYPE spannerd_timeouts_total counter",
			"# TYPE spannerd_tuples_total counter",
			"# TYPE spannerd_uptime_seconds gauge",
			"# TYPE spannerd_view_refresh_duration_seconds histogram",
			"# TYPE spannerd_view_refreshes_total counter",
			"# TYPE spannerd_views gauge",
			"# TYPE spannerd_wal_appended_bytes_total counter",
			"# TYPE spannerd_wal_fsync_max_seconds gauge",
			"# TYPE spannerd_wal_fsync_seconds_total counter",
			"# TYPE spannerd_wal_fsyncs_total counter",
			"# TYPE spannerd_wal_records_total counter",
			"# TYPE spannerd_wal_size_bytes gauge",
			"# TYPE spannerd_warm_memo_reuse_ratio gauge",
			"# TYPE spannerd_warm_recomputed_nodes_total counter",
			"# TYPE spannerd_warm_reused_nodes_total counter",
			"spannerd_client_disconnects_total{}",
			"spannerd_documents{}",
			"spannerd_inflight_requests{}",
			"spannerd_matrix_cache_cores{}",
			"spannerd_matrix_cache_hit_rate{}",
			"spannerd_matrix_cache_hits_total{}",
			"spannerd_matrix_cache_misses_total{}",
			"spannerd_plan_cache_hit_rate{}",
			"spannerd_plan_cache_hits_total{}",
			"spannerd_plan_cache_misses_total{}",
			"spannerd_queries{}",
			"spannerd_query_duration_seconds_bucket{query,kind,le}",
			"spannerd_query_duration_seconds_count{query,kind}",
			"spannerd_query_duration_seconds_sum{query,kind}",
			"spannerd_rejected_total{}",
			"spannerd_request_duration_seconds_bucket{handler,le}",
			"spannerd_request_duration_seconds_count{handler}",
			"spannerd_request_duration_seconds_sum{handler}",
			"spannerd_requests_total{handler,code}",
			"spannerd_storage_info{backend,persistent}",
			"spannerd_storage_recovered_records{}",
			"spannerd_storage_recovered_torn_tail{}",
			"spannerd_storage_snapshot_age_seconds{}",
			"spannerd_storage_snapshot_bytes{}",
			"spannerd_storage_snapshots_total{}",
			"spannerd_storage_sync_failures_total{}",
			"spannerd_timeouts_total{}",
			"spannerd_tuples_total{query,kind}",
			"spannerd_uptime_seconds{}",
			"spannerd_view_refresh_duration_seconds_bucket{doc,query,le}",
			"spannerd_view_refresh_duration_seconds_count{doc,query}",
			"spannerd_view_refresh_duration_seconds_sum{doc,query}",
			"spannerd_view_refreshes_total{}",
			"spannerd_views{}",
			"spannerd_wal_appended_bytes_total{}",
			"spannerd_wal_fsync_max_seconds{}",
			"spannerd_wal_fsync_seconds_total{}",
			"spannerd_wal_fsyncs_total{}",
			"spannerd_wal_records_total{}",
			"spannerd_wal_size_bytes{}",
			"spannerd_warm_memo_reuse_ratio{}",
			"spannerd_warm_recomputed_nodes_total{}",
			"spannerd_warm_reused_nodes_total{}",
		}},
		{"coordinator", tc.front.URL, []string{
			"# HELP spannerd_cluster_breaker_open Per-worker circuit breaker state (1 = open, refusing requests).",
			"# HELP spannerd_cluster_documents Documents across up shards (prober-cached).",
			"# HELP spannerd_cluster_queries Prepared queries (every shard holds the full registry; max over up shards).",
			"# HELP spannerd_cluster_views Live views across up shards (prober-cached).",
			"# HELP spannerd_cluster_worker_probe_rtt_seconds Last health-probe round trip per worker.",
			"# HELP spannerd_cluster_worker_transitions_total Up/down flips per worker since the prober started.",
			"# HELP spannerd_cluster_worker_up Per-worker probe verdict (1 = routable).",
			"# HELP spannerd_cluster_workers Configured workers on the ring.",
			"# HELP spannerd_cluster_workers_up Workers currently passing health probes.",
			"# HELP spannerd_coordinator_breaker_fast_fails_total Requests refused by an open per-worker breaker.",
			"# HELP spannerd_coordinator_disconnects_total Merged streams aborted by client disconnect.",
			"# HELP spannerd_coordinator_down_fast_fails_total Requests refused because the owning worker is down.",
			"# HELP spannerd_coordinator_inflight_requests Requests currently being coordinated.",
			"# HELP spannerd_coordinator_merged_tuples_total Tuple frames relayed through merged multi-document streams.",
			"# HELP spannerd_coordinator_request_duration_seconds Wall-clock coordinator request latency by handler (includes the worker hop).",
			"# HELP spannerd_coordinator_requests_total Requests served by the coordinator, by handler and status code.",
			"# HELP spannerd_coordinator_retries_total Idempotent reads retried against workers.",
			"# HELP spannerd_coordinator_shard_errors_total Per-shard failures inside scatter-gathers (partial results).",
			"# HELP spannerd_coordinator_timeouts_total Fan-outs cancelled by their deadline.",
			"# HELP spannerd_coordinator_uptime_seconds Time since the coordinator started.",
			"# TYPE spannerd_cluster_breaker_open gauge",
			"# TYPE spannerd_cluster_documents gauge",
			"# TYPE spannerd_cluster_queries gauge",
			"# TYPE spannerd_cluster_views gauge",
			"# TYPE spannerd_cluster_worker_probe_rtt_seconds gauge",
			"# TYPE spannerd_cluster_worker_transitions_total counter",
			"# TYPE spannerd_cluster_worker_up gauge",
			"# TYPE spannerd_cluster_workers gauge",
			"# TYPE spannerd_cluster_workers_up gauge",
			"# TYPE spannerd_coordinator_breaker_fast_fails_total counter",
			"# TYPE spannerd_coordinator_disconnects_total counter",
			"# TYPE spannerd_coordinator_down_fast_fails_total counter",
			"# TYPE spannerd_coordinator_inflight_requests gauge",
			"# TYPE spannerd_coordinator_merged_tuples_total counter",
			"# TYPE spannerd_coordinator_request_duration_seconds histogram",
			"# TYPE spannerd_coordinator_requests_total counter",
			"# TYPE spannerd_coordinator_retries_total counter",
			"# TYPE spannerd_coordinator_shard_errors_total counter",
			"# TYPE spannerd_coordinator_timeouts_total counter",
			"# TYPE spannerd_coordinator_uptime_seconds gauge",
			"spannerd_cluster_breaker_open{worker}",
			"spannerd_cluster_documents{}",
			"spannerd_cluster_queries{}",
			"spannerd_cluster_views{}",
			"spannerd_cluster_worker_probe_rtt_seconds{worker}",
			"spannerd_cluster_worker_transitions_total{worker}",
			"spannerd_cluster_worker_up{worker}",
			"spannerd_cluster_workers_up{}",
			"spannerd_cluster_workers{}",
			"spannerd_coordinator_breaker_fast_fails_total{}",
			"spannerd_coordinator_disconnects_total{}",
			"spannerd_coordinator_down_fast_fails_total{}",
			"spannerd_coordinator_inflight_requests{}",
			"spannerd_coordinator_merged_tuples_total{}",
			"spannerd_coordinator_request_duration_seconds_bucket{handler,le}",
			"spannerd_coordinator_request_duration_seconds_count{handler}",
			"spannerd_coordinator_request_duration_seconds_sum{handler}",
			"spannerd_coordinator_requests_total{handler,code}",
			"spannerd_coordinator_retries_total{}",
			"spannerd_coordinator_shard_errors_total{}",
			"spannerd_coordinator_timeouts_total{}",
			"spannerd_coordinator_uptime_seconds{}",
		}},
	} {
		resp, err := http.Get(c.url + "/metrics")
		if err != nil {
			t.Fatalf("%s /metrics: %v", c.role, err)
		}
		b, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		got := metricShape(string(b))
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s /metrics shape changed:\n got: %q\nwant: %q", c.role, got, c.want)
		}
	}
}

// frontRole is one role under the shared-behaviour table: its base URL
// and its front.
type frontRole struct {
	name string
	url  string
	f    *front
}

// metricValue reads one series' value from a role's /metrics.
func (r frontRole) metricValue(t *testing.T, series string) float64 {
	t.Helper()
	resp, err := http.Get(r.url + "/metrics")
	if err != nil {
		t.Fatalf("%s /metrics: %v", r.name, err)
	}
	b, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", r.name, line, err)
			}
			return f
		}
	}
	return 0
}

// TestFrontSharedBehaviour runs one table over a worker Server and a
// Coordinator fronting it: both roles must resolve, echo and propagate
// request ids, refuse oversized bodies with 413, turn an expired ?timeout= into
// one counted 504, and record a client hanging up mid-body as a 499
// and a disconnect.
func TestFrontSharedBehaviour(t *testing.T) {
	var mu sync.Mutex
	var logs bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &logs}, nil))
	const maxBody = 2 << 20
	srv := newTestServer(t, Config{Logger: logger, MaxBodyBytes: maxBody})
	w := startTestWorker(t, srv)
	defer srv.Close()
	defer w.kill()
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:       []string{w.url},
		ProbeInterval: 10 * time.Second,
		MaxBodyBytes:  maxBody,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	cs := httptest.NewServer(coord)
	defer cs.Close()

	roles := []frontRole{{"worker", w.url, srv.front}, {"coordinator", cs.URL, coord.front}}
	send := func(t *testing.T, method, url, body string, hdr ...string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(method, url, strings.NewReader(body))
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp
	}
	send(t, "PUT", cs.URL+"/queries/q", `{"src": ".*!x{ab}.*"}`)
	send(t, "PUT", cs.URL+"/docs/d", strings.Repeat("ab", 2000))
	send(t, "PUT", cs.URL+"/docs/huge", strings.Repeat("ab", 1<<19)) // ~20 MB of NDJSON

	// workerLogged reports whether the worker logged a request with id.
	workerLogged := func(id string) bool {
		mu.Lock()
		defer mu.Unlock()
		return strings.Contains(logs.String(), `"role":"worker"`) &&
			strings.Contains(logs.String(), `"request_id":"`+id+`"`)
	}

	cases := []struct {
		name string
		run  func(t *testing.T, r frontRole)
	}{
		{"request id echoed and propagated", func(t *testing.T, r frontRole) {
			id := "trace-" + r.name
			resp := send(t, "GET", r.url+"/docs/d", "", "X-Request-ID", id)
			if got := resp.Header.Get("X-Request-ID"); got != id {
				t.Fatalf("echoed X-Request-ID = %q, want %q", got, id)
			}
			if !workerLogged(id) {
				t.Fatalf("worker never saw request id %q", id)
			}
			minted := send(t, "GET", r.url+"/docs/d", "").Header.Get("X-Request-ID")
			if minted == "" || !workerLogged(minted) {
				t.Fatalf("minted request id %q not carried to the worker", minted)
			}
		}},
		{"oversized body refused", func(t *testing.T, r frontRole) {
			// One body of declared length, then more of undeclared length
			// (chunked) than the breaker threshold: the coordinator cuts
			// those off while forwarding, which must not count against
			// the worker.
			for i := 0; i < 6; i++ {
				req, _ := http.NewRequest("PUT", r.url+"/docs/toobig", strings.NewReader(strings.Repeat("a", maxBody+1)))
				if i > 0 {
					req.ContentLength = -1
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("oversized PUT %d: %v", i, err)
				}
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusRequestEntityTooLarge {
					t.Fatalf("oversized PUT %d = %d, want 413", i, resp.StatusCode)
				}
			}
			if got := send(t, "GET", r.url+"/docs/toobig", "").StatusCode; got != 404 {
				t.Fatalf("oversized document stored anyway (GET = %d)", got)
			}
			if got := send(t, "GET", r.url+"/docs/d", "").StatusCode; got != 200 {
				t.Fatalf("GET after oversized PUTs = %d, want 200", got)
			}
		}},
		{"expired timeout is one counted 504", func(t *testing.T, r frontRole) {
			before := r.metricValue(t, r.f.spec.timeouts.name)
			if got := send(t, "GET", r.url+"/count?query=q&doc=d&timeout=1ns", "").StatusCode; got != 504 {
				t.Fatalf("status = %d, want 504", got)
			}
			if d := r.metricValue(t, r.f.spec.timeouts.name) - before; d != 1 {
				t.Fatalf("%s rose by %v, want 1", r.f.spec.timeouts.name, d)
			}
		}},
		{"client hang-up mid-body is a 499", func(t *testing.T, r frontRole) {
			series := fmt.Sprintf(`%s{handler="stream",code="499"}`, r.f.spec.requests.name)
			before := r.metricValue(t, series)
			beforeDisc := r.metricValue(t, r.f.spec.disconnects.name)
			conn, err := net.Dial("tcp", strings.TrimPrefix(r.url, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "GET /stream?query=q&doc=huge HTTP/1.1\r\nHost: spannerd\r\n\r\n")
			if _, err := conn.Read(make([]byte, 4096)); err != nil {
				t.Fatalf("reading response start: %v", err)
			}
			if tcp, ok := conn.(*net.TCPConn); ok {
				_ = tcp.SetLinger(0)
			}
			_ = conn.Close()
			deadline := time.Now().Add(15 * time.Second)
			for r.metricValue(t, series)-before != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("%s never rose by 1", series)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if d := r.metricValue(t, r.f.spec.disconnects.name) - beforeDisc; d != 1 {
				t.Fatalf("%s rose by %v, want 1", r.f.spec.disconnects.name, d)
			}
		}},
	}
	for _, c := range cases {
		for _, r := range roles {
			t.Run(c.name+"/"+r.name, func(t *testing.T) { c.run(t, r) })
		}
	}
}
